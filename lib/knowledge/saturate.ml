open Soqm_vml
open Soqm_semantics

type provenance = Declared | Derived of string

type fact = { spec : Equivalence.t; prov : provenance; depth : int }

type config = { max_rounds : int; max_derived : int; max_expr_size : int }

let default_config = { max_rounds = 6; max_derived = 2000; max_expr_size = 48 }

type stats = {
  declared : int;
  derived : int;
  subsumed : int;
  rounds : int;
  truncated : bool;
}

(* ------------------------------------------------------------------ *)
(* expression utilities                                                *)
(* ------------------------------------------------------------------ *)

(* Replace every occurrence of [from] (as a whole subterm) by [to_]. *)
let rec replace_subterm ~from ~to_ e =
  if Expr.equal e from then to_
  else
    let go e = replace_subterm ~from ~to_ e in
    match e with
    | Expr.Const _ | Expr.Self | Expr.Param _ | Expr.Ref _ | Expr.ClassObj _ ->
      e
    | Expr.Prop (e1, p) -> Expr.Prop (go e1, p)
    | Expr.Call (r, m, args) -> Expr.Call (go r, m, List.map go args)
    | Expr.Binop (op, a, b) -> Expr.Binop (op, go a, go b)
    | Expr.Not a -> Expr.Not (go a)
    | Expr.TupleE fields -> Expr.TupleE (List.map (fun (l, x) -> (l, go x)) fields)
    | Expr.SetE xs -> Expr.SetE (List.map go xs)
    | Expr.If (a, b, c) -> Expr.If (go a, go b, go c)

(* A small structural type inferencer over specification sides, enough
   to direct equivalence composition: the quantified variable has type
   [TObj cls]; parameters and anything dynamic infer to [None]. *)
let type_of_value = function
  | Value.Bool _ -> Some Vtype.TBool
  | Value.Int _ -> Some Vtype.TInt
  | Value.Real _ -> Some Vtype.TReal
  | Value.Str _ -> Some Vtype.TString
  | Value.Obj oid -> Some (Vtype.TObj (Oid.cls oid))
  | _ -> None

let rec infer schema ~cls ~var e =
  let lift base = function
    | Vtype.TSet t -> Some (Vtype.TSet t)
    | t -> if base then Some t else Some (Vtype.TSet t)
  in
  match e with
  | Expr.Ref r when String.equal r var -> Some (Vtype.TObj cls)
  | Expr.Ref _ | Expr.Param _ | Expr.Self -> None
  | Expr.ClassObj _ -> None
  | Expr.Const v -> type_of_value v
  | Expr.Prop (e1, p) -> (
    match infer schema ~cls ~var e1 with
    | Some (Vtype.TObj c) ->
      Option.bind (Schema.property_type schema ~cls:c ~prop:p) (lift true)
    | Some (Vtype.TSet (Vtype.TObj c)) ->
      (* set-lifted access: scalar results collect into a set, set
         results union *)
      Option.bind (Schema.property_type schema ~cls:c ~prop:p) (lift false)
    | _ -> None)
  | Expr.Call (Expr.ClassObj c, m, _) ->
    Option.map
      (fun (ms : Schema.method_sig) -> ms.Schema.returns)
      (Schema.own_method schema ~cls:c ~meth:m)
  | Expr.Call (recv, m, _) -> (
    match infer schema ~cls ~var recv with
    | Some (Vtype.TObj c) ->
      Option.map
        (fun (ms : Schema.method_sig) -> ms.Schema.returns)
        (Schema.inst_method schema ~cls:c ~meth:m)
    | _ -> None)
  | Expr.Binop ((Eq | Neq | Lt | Le | Gt | Ge | IsIn | IsSubset | And | Or), _, _)
  | Expr.Not _ ->
    Some Vtype.TBool
  | Expr.Binop _ | Expr.TupleE _ | Expr.SetE _ | Expr.If _ -> None

(* ------------------------------------------------------------------ *)
(* alpha-canonical subsumption                                         *)
(* ------------------------------------------------------------------ *)

let canon_var = "%x"

let canonical_key spec =
  let canon var e = Expr.rename_ref ~old_ref:var ~new_ref:canon_var e in
  let sorted a b =
    if Expr.compare a b <= 0 then (a, b) else (b, a)
  in
  match (spec : Equivalence.t) with
  | Equivalence.Expr_equiv { cls; var; lhs; rhs; _ } ->
    let a, b = sorted (canon var lhs) (canon var rhs) in
    Printf.sprintf "E|%s|%s|%s" cls (Expr.to_string a) (Expr.to_string b)
  | Equivalence.Cond_equiv { cls; var; lhs; rhs; _ } ->
    let a, b = sorted (canon var lhs) (canon var rhs) in
    Printf.sprintf "C|%s|%s|%s" cls (Expr.to_string a) (Expr.to_string b)
  | Equivalence.Implication { cls; var; antecedent; consequent; _ } ->
    Printf.sprintf "I|%s|%s|%s" cls
      (Expr.to_string (canon var antecedent))
      (Expr.to_string (canon var consequent))
  | Equivalence.Query_method { cls; var; cond; meth_cls; meth; args; _ } ->
    Printf.sprintf "Q|%s|%s|%s->%s(%s)" cls
      (Expr.to_string (canon var cond))
      meth_cls meth
      (String.concat ","
         (List.map
            (function
              | Equivalence.Arg_param p -> "?" ^ p
              | Equivalence.Arg_const v -> Value.to_string v)
            args))

let trivial = function
  | Equivalence.Expr_equiv { lhs; rhs; _ }
  | Equivalence.Cond_equiv { lhs; rhs; _ } ->
    Expr.equal lhs rhs
  | Equivalence.Implication { antecedent; consequent; _ } ->
    Expr.equal antecedent consequent
  | Equivalence.Query_method _ -> false

(* ------------------------------------------------------------------ *)
(* derivation steps                                                    *)
(* ------------------------------------------------------------------ *)

let spec_name (f : fact) = Equivalence.name f.spec

let sides = function
  | Equivalence.Expr_equiv { lhs; rhs; _ }
  | Equivalence.Cond_equiv { lhs; rhs; _ }
  | Equivalence.Implication { antecedent = lhs; consequent = rhs; _ } ->
    [ lhs; rhs ]
  | Equivalence.Query_method { cond; _ } -> [ cond ]

let max_side_size spec =
  List.fold_left (fun acc e -> max acc (Expr.size e)) 0 (sides spec)

(* [∀x: a ⇒ b] + [∀x: b ⇒ c]  ↦  [∀x: a ⇒ c] *)
let imp_trans (f1 : fact) (f2 : fact) =
  match (f1.spec, f2.spec) with
  | ( Equivalence.Implication { cls = c1; var = v1; antecedent = a1; consequent = b1; _ },
      Equivalence.Implication { cls = c2; var = v2; antecedent = a2; consequent = b2; _ } )
    when String.equal c1 c2 ->
    let a2 = Expr.rename_ref ~old_ref:v2 ~new_ref:v1 a2 in
    let b2 = Expr.rename_ref ~old_ref:v2 ~new_ref:v1 b2 in
    if Expr.equal b1 a2 then
      [
        ( (fun name ->
            Equivalence.Implication
              { name; cls = c1; var = v1; antecedent = a1; consequent = b2 }),
          Printf.sprintf "%s∘%s" (spec_name f1) (spec_name f2) );
      ]
    else []
  | _ -> []

(* [∀x IN C: e1 == e2] with [e1 : TObj C'] + [∀y IN C': f1 == f2]
   ↦  [∀x IN C: f1[y := e1] == f2[y := e2]] *)
let compose schema (f1 : fact) (f2 : fact) =
  match (f1.spec, f2.spec) with
  | ( Equivalence.Expr_equiv { cls = c1; var = v1; lhs = e1; rhs = e2; _ },
      Equivalence.Expr_equiv { cls = c2; var = v2; lhs = g1; rhs = g2; _ } ) -> (
    match infer schema ~cls:c1 ~var:v1 e1 with
    | Some (Vtype.TObj c) when String.equal c c2 ->
      let lhs = Expr.subst_ref v2 e1 g1 in
      let rhs = Expr.subst_ref v2 e2 g2 in
      [
        ( (fun name -> Equivalence.Expr_equiv { name; cls = c1; var = v1; lhs; rhs }),
          Printf.sprintf "%s∘%s" (spec_name f1) (spec_name f2) );
      ]
    | _ -> [])
  | _ -> []

(* Rewrite an equivalence's side occurrences inside an implication body
   (both directions).  Condition equivalences rewrite whole boolean
   subterms the same way — a side equal to the antecedent or consequent
   is replaced at the root. *)
let subst_into (feq : fact) (fimp : fact) =
  match (feq.spec, fimp.spec) with
  | ( ( Equivalence.Expr_equiv { cls = ce; var = ve; lhs = l; rhs = r; _ }
      | Equivalence.Cond_equiv { cls = ce; var = ve; lhs = l; rhs = r; _ } ),
      Equivalence.Implication { cls = ci; var = vi; antecedent = a; consequent = c; _ } )
    when String.equal ce ci ->
    let l = Expr.rename_ref ~old_ref:ve ~new_ref:vi l in
    let r = Expr.rename_ref ~old_ref:ve ~new_ref:vi r in
    let directions = [ (l, r); (r, l) ] in
    List.filter_map
      (fun (from, to_) ->
        let a' = replace_subterm ~from ~to_ a in
        let c' = replace_subterm ~from ~to_ c in
        if Expr.equal a a' && Expr.equal c c' then None
        else
          Some
            ( (fun name ->
                Equivalence.Implication
                  { name; cls = ci; var = vi; antecedent = a'; consequent = c' }),
              Printf.sprintf "%s[%s]" (spec_name fimp) (spec_name feq) ))
      directions
  | _ -> []

(* ------------------------------------------------------------------ *)
(* the closure                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) ?counters schema declared =
  List.iter
    (fun spec ->
      match Equivalence.validate schema spec with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Saturate.run: " ^ msg))
    declared;
  let seen = Hashtbl.create 256 in
  let facts = ref [] (* reversed *) in
  let n_derived = ref 0 in
  let n_subsumed = ref 0 in
  let next_name = ref 0 in
  let truncated = ref false in
  let add spec prov depth =
    let key = canonical_key spec in
    if trivial spec || Hashtbl.mem seen key then begin
      incr n_subsumed;
      None
    end
    else begin
      Hashtbl.replace seen key ();
      let f = { spec; prov; depth } in
      facts := f :: !facts;
      Some f
    end
  in
  List.iter (fun spec -> ignore (add spec Declared 0)) declared;
  let n_declared = List.length !facts in
  (* candidate from a pair of facts: validated, size-bounded, named on
     acceptance so K-numbers stay dense and deterministic *)
  let consider (f1 : fact) (f2 : fact) acc (mk, trace) =
    if !n_derived >= config.max_derived then begin
      truncated := true;
      acc
    end
    else
      let probe = mk "%candidate" in
      if trivial probe then begin
        incr n_subsumed;
        acc
      end
      else if max_side_size probe > config.max_expr_size then acc
      else if Hashtbl.mem seen (canonical_key probe) then begin
        incr n_subsumed;
        acc
      end
      else
        match Equivalence.validate schema probe with
        | Error _ -> acc
        | Ok () -> (
          incr next_name;
          let name = Printf.sprintf "K%d" !next_name in
          let spec = mk name in
          match add spec (Derived trace) (1 + max f1.depth f2.depth) with
          | Some f ->
            incr n_derived;
            f :: acc
          | None -> acc)
  in
  (* semi-naive rounds: a pair is only re-examined when at least one of
     its facts entered the base in the previous round, so candidates are
     generated (and counted) once, not once per round *)
  let rounds = ref 0 in
  let continue = ref true in
  let frontier = ref (List.rev !facts) in
  while !continue && !rounds < config.max_rounds do
    incr rounds;
    let all = List.rev !facts in
    let fresh = Hashtbl.create 64 in
    List.iter (fun f -> Hashtbl.replace fresh (spec_name f) ()) !frontier;
    let is_new f = Hashtbl.mem fresh (spec_name f) in
    let added =
      List.fold_left
        (fun acc f1 ->
          List.fold_left
            (fun acc f2 ->
              if not (is_new f1 || is_new f2) then acc
              else
                let acc =
                  List.fold_left (consider f1 f2) acc (imp_trans f1 f2)
                in
                let acc =
                  List.fold_left (consider f1 f2) acc (compose schema f1 f2)
                in
                List.fold_left (consider f1 f2) acc (subst_into f1 f2))
            acc all)
        [] all
    in
    frontier := added;
    if added = [] then continue := false
  done;
  if !continue && !rounds >= config.max_rounds then truncated := true;
  (match counters with
  | Some c ->
    Counters.add c Rules_derived !n_derived;
    Counters.add c Rules_subsumed !n_subsumed
  | None -> ());
  ( List.rev !facts,
    {
      declared = n_declared;
      derived = !n_derived;
      subsumed = !n_subsumed;
      rounds = !rounds;
      truncated = !truncated;
    } )

let specs facts = List.map (fun f -> f.spec) facts

let provenance_alist facts =
  List.filter_map
    (fun f ->
      match f.prov with
      | Declared -> None
      | Derived trace -> Some (Equivalence.name f.spec, trace))
    facts
