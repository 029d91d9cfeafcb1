(* Scaling micro-benchmark for the reference (logical) evaluator.

   Two checks, both runnable as CI assertions:

   1. Growth: times [Eval.run] — the hash-based logical evaluator — on
      the general-algebra term of the EXP-A worked example plus explicit
      join/natural-join/diff shapes at increasing database sizes, and
      checks that evaluation no longer scales quadratically in the number
      of paragraphs (the seed list evaluator sat at exponent ~2.0).

   2. Head-to-head: at n_docs = 800 the same relational work is evaluated
      with the retained seed operators ([Naive]) over identical
      materialized inputs; the hash evaluator must be at least 5x faster
      and [Relation.equal] must hold between both results at every size
      the naive side runs at.

   Run with:  dune exec bench/scaling.exe -- [--assert] [--seed N]
                [--json PATH]
   Both checks run with or without [--assert]; the exit code is 1 iff
   one failed.

   [--json PATH] additionally writes the measured rows and fitted
   exponents as machine-readable JSON (same shape family as
   BENCH_exec.json), so the bench trajectory accumulates across PRs. *)

open Soqm_vml
open Soqm_core
open Bench_util
module A = Soqm_algebra
module O = Soqm_oracle

let query_q =
  "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
   AND (p->document()).title == 'Query Optimization'"

(* An explicit join over the same data: every (section, document) pair
   with matching document reference.  Under the seed list evaluator this
   was O(|Section| * |Document|); hash-based evaluation is linear. *)
let join_cond = Expr.(Binop (Eq, Prop (Ref "s", "document"), Ref "d"))

let join_term =
  A.General.Join
    (join_cond, A.General.Get ("s", "Section"), A.General.Get ("d", "Document"))

(* Self natural-join of the paragraph extent: output cardinality is
   linear, so any superlinear time is pure evaluator overhead. *)
let natjoin_term =
  A.General.NaturalJoin
    (A.General.Get ("p", "Paragraph"), A.General.Get ("p", "Paragraph"))

let small_select =
  A.General.Select
    ( Expr.(Binop (Le, Prop (Ref "p", "number"), Const (Value.Int 1))),
      A.General.Get ("p", "Paragraph") )

let diff_term = A.General.Diff (A.General.Get ("p", "Paragraph"), small_select)

(* Best-of-n for the fast (hash) side: a single run is noisy enough at
   sub-second scale to flip the fitted exponent by ±0.15. *)
let time_best ?(n = 3) f =
  let rec go best x i =
    if i = 0 then (x, best)
    else
      let x', s = time f in
      go (Float.min best s) x' (i - 1)
  in
  let x, s = time f in
  go s x (n - 1)

let sizes = [ 50; 200; 800; 3200 ]

(* The naive side is only timed up to this size: the seed operators take
   minutes beyond it (that is the point of this PR). *)
let naive_max = 800

(* gates *)
let max_exponent = 1.75
let min_naive_speedup = 5.0

type row = {
  n_docs : int;
  paras : int;
  q_s : float;
  join_s : float;
  naive_join_s : float option; (* same work via [Naive], when affordable *)
}

let naive_suite store sections documents paragraphs selected =
  (* identical relational work to [join_term]/[natjoin_term]/[diff_term],
     evaluated with the retained seed list operators *)
  let pred tup =
    let binding r = List.assoc_opt r tup in
    Value.truthy (Runtime.eval (Runtime.env ~binding store) join_cond)
  in
  let j = O.Naive.join pred sections documents in
  let nj = O.Naive.natural_join paragraphs paragraphs in
  let d = O.Naive.diff paragraphs selected in
  (j, nj, d)

let hash_suite store sections documents paragraphs selected =
  ignore (sections, documents, paragraphs, selected);
  let j = O.Eval.run store join_term in
  let nj = O.Eval.run store natjoin_term in
  let d = O.Eval.run store diff_term in
  (j, nj, d)

let measure () =
  List.map
    (fun n_docs ->
      let store = (database n_docs).Db.store in
      let schema = Object_store.schema store in
      let q_term = Soqm_vql.To_algebra.query_to_algebra schema query_q in
      let _, q_s = time_best (fun () -> ignore (O.Eval.run store q_term)) in
      (* materialize the inputs once so both sides time pure operator work *)
      let sections = O.Eval.run store (A.General.Get ("s", "Section")) in
      let documents = O.Eval.run store (A.General.Get ("d", "Document")) in
      let paragraphs = O.Eval.run store (A.General.Get ("p", "Paragraph")) in
      let selected = O.Eval.run store small_select in
      let (hj, hnj, hd), join_s =
        time_best (fun () ->
            hash_suite store sections documents paragraphs selected)
      in
      let naive_join_s =
        if n_docs > naive_max then None
        else begin
          let (nj, nnj, nd), s =
            time (fun () ->
                naive_suite store sections documents paragraphs selected)
          in
          (* set-semantics agreement between the seed and hash operators *)
          assert (A.Relation.equal nj hj);
          assert (A.Relation.equal nnj hnj);
          assert (A.Relation.equal nd hd);
          Some s
        end
      in
      {
        n_docs;
        paras = Object_store.extent_size store "Paragraph";
        q_s;
        join_s;
        naive_join_s;
      })
    sizes

(* Fitted growth exponent between the two largest sizes: time should grow
   like paras^e; a hash-based evaluator keeps e well under 2 even with
   constant-factor noise, while the seed list evaluator sits at e ~= 2. *)
let exponent rows value =
  match List.rev rows with
  | b :: a :: _ ->
    log (value b /. value a) /. log (float b.paras /. float a.paras)
  | _ -> nan

let () =
  Printf.printf "logical-evaluator scaling (reference interpreter, Eval.run)\n";
  Printf.printf "%8s %12s | %12s %12s %14s %9s\n" "docs" "paragraphs"
    "worked Q (s)" "joins (s)" "naive joins(s)" "speedup";
  let rows = measure () in
  List.iter
    (fun r ->
      let naive, speedup =
        match r.naive_join_s with
        | Some s -> (Printf.sprintf "%14.4f" s, Printf.sprintf "%8.1fx" (s /. r.join_s))
        | None -> (Printf.sprintf "%14s" "-", Printf.sprintf "%9s" "-")
      in
      Printf.printf "%8d %12d | %12.4f %12.4f %s %s\n" r.n_docs r.paras r.q_s
        r.join_s naive speedup)
    rows;
  let e_q = exponent rows (fun r -> r.q_s) in
  let e_join = exponent rows (fun r -> r.join_s) in
  Printf.printf
    "\ngrowth exponent over the last size doubling: worked Q %.2f, joins %.2f\n"
    e_q e_join;
  (match arg_value "--json" None Option.some with
  | Some path ->
    let row r =
      Obj
        [
          ("n_docs", Int r.n_docs);
          ("paragraphs", Int r.paras);
          ("worked_q_s", Fixed (6, r.q_s));
          ("joins_s", Fixed (6, r.join_s));
          ( "naive_joins_s",
            Option.fold ~none:Null ~some:(fun s -> Fixed (6, s)) r.naive_join_s
          );
        ]
    in
    write_json path
      [
        ("bench", Str "scaling");
        ("rows", List (List.map row rows));
        ("exponent_worked_q", Fixed (3, e_q));
        ("exponent_joins", Fixed (3, e_join));
      ]
  | None -> ());
  check
    (Printf.sprintf "no quadratic blow-up (growth exponent <= %.2f)"
       max_exponent)
    (Float.max e_q e_join <= max_exponent);
  let naive_speedup =
    match List.find_opt (fun r -> r.n_docs = naive_max) rows with
    | Some { naive_join_s = Some naive_s; join_s; _ } -> naive_s /. join_s
    | _ -> 0.
  in
  Printf.printf "hash evaluator vs the seed operators at n_docs=%d: %.1fx\n"
    naive_max naive_speedup;
  check
    (Printf.sprintf "hash evaluator >= %.0fx faster than the seed operators"
       min_naive_speedup)
    (naive_speedup >= min_naive_speedup);
  finish ()
