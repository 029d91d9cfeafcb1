open Soqm_algebra
open Soqm_physical

type config = { max_variants : int; max_size_slack : int }

let default_config = { max_variants = 2500; max_size_slack = 14 }

type step = { rule : string; term : Restricted.t }

type result = {
  best_plan : Plan.t;
  best_cost : float;
  best_logical : Restricted.t;
  variants_explored : int;
  truncated : bool;
  derivation : step list;
  rule_applications : (string * int) list;
}

(* All single-step rewrites of [term] by [f] applied at every node. *)
let rec rewrites_everywhere f term =
  let at_root = f term in
  let ins = Restricted.inputs term in
  let in_inputs =
    List.concat
      (List.mapi
         (fun i input ->
           List.map
             (fun input' ->
               Restricted.with_inputs term
                 (List.mapi (fun j x -> if i = j then input' else x) ins))
             (rewrites_everywhere f input))
         ins)
  in
  at_root @ in_inputs

(* A rewrite is admissible when the resulting tree is still well-formed
   and presents the same references to its consumer. *)
let admissible ~want_refs cand =
  match General.well_formed (Restricted.to_general cand) with
  | Ok () -> ( try Restricted.refs cand = want_refs with Invalid_argument _ -> false)
  | Error _ -> false
  | exception Invalid_argument _ -> false

module SSet = Set.Make (String)

type node = {
  term : Restricted.t;
  parent : (int * string) option;  (* index of parent node, rule name *)
  once_used : SSet.t;
}

let saturate_nodes ~config schema rules term0 =
  let term0 = Restricted.alpha_canonical term0 in
  let want_refs = Restricted.refs term0 in
  let size_limit = Restricted.size term0 + config.max_size_slack in
  let fired : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let seen = Hashtbl.create 256 in
  (* every canonical candidate ever inspected, admissible or not: a
     candidate regenerated by another derivation skips the (expensive)
     well-formedness/refs admissibility check entirely *)
  let examined = Hashtbl.create 256 in
  let nodes = ref [||] in
  let count = ref 0 in
  let truncated = ref false in
  (* true when the node is kept as a new variant.  A duplicate already
     kept (or already dropped) is never a lost variant: only report
     truncation for genuinely new terms that the bound forces us to
     discard *)
  let push node =
    if Hashtbl.mem seen node.term then false
    else if !count >= config.max_variants then (
      truncated := true;
      false)
    else (
      Hashtbl.replace seen node.term ();
      if Array.length !nodes = !count then
        nodes :=
          Array.append !nodes (Array.make (max 64 (Array.length !nodes)) node);
      !nodes.(!count) <- node;
      incr count;
      true)
  in
  Hashtbl.replace examined (Restricted.alpha_canonical term0) ();
  ignore (push { term = term0; parent = None; once_used = SSet.empty });
  let i = ref 0 in
  while !i < !count do
    let idx = !i in
    let node = !nodes.(idx) in
    List.iter
      (fun (rule : Rule.transformation) ->
        if not (rule.Rule.t_apply_once && SSet.mem rule.Rule.t_name node.once_used)
        then
          let results =
            rewrites_everywhere (Rule.root_rewrites schema rule) node.term
          in
          List.iter
            (fun cand ->
              let cand = Restricted.alpha_canonical cand in
              if not (Hashtbl.mem examined cand) then (
                Hashtbl.replace examined cand ();
                if
                  Restricted.size cand <= size_limit
                  && admissible ~want_refs cand
                  && push
                       {
                         term = cand;
                         parent = Some (idx, rule.Rule.t_name);
                         once_used =
                           (if rule.Rule.t_apply_once then
                              SSet.add rule.Rule.t_name node.once_used
                            else node.once_used);
                       }
                then
                  Hashtbl.replace fired rule.Rule.t_name
                    (1 + Option.value ~default:0 (Hashtbl.find_opt fired rule.Rule.t_name))))
            results)
      rules;
    incr i
  done;
  let rule_applications =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) fired []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (Array.to_list (Array.sub !nodes 0 !count), !truncated, !nodes, rule_applications)

let saturate ?(config = default_config) schema rules term0 =
  let variants, truncated, _, _ = saturate_nodes ~config schema rules term0 in
  (List.map (fun n -> n.term) variants, truncated)

(* ------------------------------------------------------------------ *)
(* Implementation phase                                                *)
(* ------------------------------------------------------------------ *)

exception No_plan of string

(* The memo stores [Some (plan, cost)] for implementable terms and [None]
   for terms known to have no plan: without the negative entries, a
   subterm that raises [No_plan] is re-derived from scratch for every one
   of the (up to [max_variants]) logical variants that contains it. *)
let implement_memo (ctx : Rule.opt_ctx) impls memo =
  let rec best (term : Restricted.t) : Plan.t * float =
    match Hashtbl.find_opt memo term with
    | Some (Some pc) -> pc
    | Some None ->
      raise
        (No_plan (Format.asprintf "no implementation for %a" Restricted.pp term))
    | None ->
      let chosen =
        try
          let input_plans =
            List.map (fun t -> fst (best t)) (Restricted.inputs term)
          in
          let structural =
            Option.to_list (Plan.structural_root term input_plans)
          in
          let from_rules =
            List.concat_map
              (fun (r : Rule.implementation) ->
                List.filter_map
                  (fun b ->
                    try r.Rule.i_build ctx b (fun sub -> fst (best sub))
                    with No_plan _ -> None)
                  (Pattern.matches ctx.Rule.schema r.Rule.i_lhs term))
              impls
          in
          (* structural first: on a cost tie the earlier candidate wins *)
          let candidates = structural @ from_rules in
          (* branch-and-bound over the candidate list: keep the cheapest *)
          List.fold_left
            (fun acc plan ->
              let c = Cost.cost ctx.Rule.stats plan in
              match acc with
              | Some (_, best_c) when best_c <= c -> acc
              | _ -> Some (plan, c))
            None candidates
        with No_plan _ ->
          (* a structurally-required input has no plan, so neither has
             this term *)
          None
      in
      Hashtbl.replace memo term chosen;
      (match chosen with
      | Some pc -> pc
      | None ->
        raise
          (No_plan
             (Format.asprintf "no implementation for %a" Restricted.pp term)))
  in
  best

let implement_only ctx impls term =
  let memo = Hashtbl.create 64 in
  implement_memo ctx impls memo term

let optimize ?(config = default_config) (ctx : Rule.opt_ctx) rules impls term0 =
  let nodes, truncated, arr, rule_applications =
    saturate_nodes ~config ctx.Rule.schema rules term0
  in
  let memo = Hashtbl.create 1024 in
  let best = implement_memo ctx impls memo in
  let best_result =
    List.fold_left
      (fun acc (idx, node) ->
        match best node.term with
        | plan, cost -> (
          match acc with
          | Some (_, _, best_cost) when best_cost <= cost -> acc
          | _ -> Some (idx, plan, cost))
        | exception No_plan _ -> acc)
      None
      (List.mapi (fun i n -> (i, n)) nodes)
  in
  match best_result with
  | None -> raise (No_plan "no variant could be implemented")
  | Some (winner_idx, best_plan, best_cost) ->
    (* reconstruct the derivation of the winning variant *)
    let rec path idx acc =
      let node = arr.(idx) in
      match node.parent with
      | None -> { rule = "(input)"; term = node.term } :: acc
      | Some (p, rule) -> path p ({ rule; term = node.term } :: acc)
    in
    {
      best_plan;
      best_cost;
      best_logical = arr.(winner_idx).term;
      variants_explored = List.length nodes;
      truncated;
      derivation = path winner_idx [];
      rule_applications;
    }
