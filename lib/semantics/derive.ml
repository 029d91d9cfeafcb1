open Soqm_vml
open Soqm_optimizer
open Soqm_algebra

exception Underivable of string

let underivable fmt = Format.kasprintf (fun s -> raise (Underivable s)) fmt

(* Placeholder leaf marking "any input providing the spec variable".  The
   class is remembered for the PAnyRanging conversion. *)
let placeholder var cls = Restricted.Get (var, cls)

(* Convert a compiled restricted chain over [placeholder var cls] into a
   pattern/template.  [side] prefixes temp-reference variables so that
   the two sides of a rule do not share temp variables (shared ones
   would have to match positionally; unshared ones are generated fresh
   on instantiation).  With [~exact_gets] every class scan, the
   placeholder included, must match literally. *)
let to_pattern ?(exact_gets = false) ~side ~var ~cls (chain : Restricted.t) :
    Pattern.t =
  let pref r =
    if Restricted.is_temp_ref r then Pattern.PRefVar (side ^ r)
    else Pattern.PRefVar r
  in
  let conv_operand = function
    | Restricted.ORef r -> Pattern.PORefOf (pref r)
    | Restricted.OConst v -> Pattern.POperand (Restricted.OConst v)
    | Restricted.OParam p -> Pattern.POperandVar p
  in
  let conv_args xs = Pattern.PArgs (List.map conv_operand xs) in
  let conv_recv = function
    | Restricted.RRef r -> Pattern.PRecvRef (pref r)
    | Restricted.RClass c -> Pattern.PRecvClass (Pattern.PName c)
  in
  let rec go = function
    | Restricted.Get (v, c) when exact_gets -> Pattern.PGet (pref v, Pattern.PName c)
    | Restricted.Get (v, c) when String.equal v var && String.equal c cls ->
      Pattern.PAnyRanging ("A", Pattern.PRefVar var, cls)
    | Restricted.Get _ -> underivable "specification side contains a class scan"
    | Restricted.SelectCmp (c, x, y, s) ->
      Pattern.PSelectCmp (Pattern.PCmp c, conv_operand x, conv_operand y, go s)
    | Restricted.MapProperty (a, p, a1, s) ->
      Pattern.PMapProperty (pref a, Pattern.PName p, pref a1, go s)
    | Restricted.MapMethod (a, m, r, xs, s) ->
      Pattern.PMapMethod (pref a, Pattern.PName m, conv_recv r, conv_args xs, go s)
    | Restricted.FlatProperty (a, p, a1, s) ->
      Pattern.PFlatProperty (pref a, Pattern.PName p, pref a1, go s)
    | Restricted.FlatMethod (a, m, r, xs, s) ->
      Pattern.PFlatMethod (pref a, Pattern.PName m, conv_recv r, conv_args xs, go s)
    | Restricted.MapOperator (a, op, xs, s) ->
      Pattern.PMapOperator (pref a, op, conv_args xs, go s)
    | Restricted.FlatOperator (a, op, xs, s) ->
      Pattern.PFlatOperator (pref a, op, conv_args xs, go s)
    | t ->
      underivable "specification side compiles to unsupported operator %s"
        (Restricted.to_string t)
  in
  go chain

let compile_map_side ~side ~var ~cls ~target expr =
  let chain =
    try Translate.compile_map ~target (placeholder var cls) expr
    with Translate.Unsupported msg -> underivable "%s" msg
  in
  to_pattern ~side ~var ~cls chain

let compile_flat_side ~side ~var ~cls ~target expr =
  let chain =
    try Translate.compile_flat ~target (placeholder var cls) expr
    with Translate.Unsupported msg -> underivable "%s" msg
  in
  to_pattern ~side ~var ~cls chain

let compile_select_side ~side ~var ~cls cond =
  let chain =
    try Translate.compile_select (placeholder var cls) cond
    with Translate.Unsupported msg -> underivable "%s" msg
  in
  to_pattern ~side ~var ~cls chain

(* The reference produced for the lifted expression: shared between both
   sides of an expression equivalence, like the paper's ?a1 in
   map<?a1, expr1(?a2)>(...) <-> map<?a1, expr2(?a2)>(...). *)
let result_var = "res"

let transformations schema (spec : Equivalence.t) : Rule.transformation list =
  match Equivalence.validate schema spec with
  | Error msg -> underivable "%s" msg
  | Ok () -> (
    match spec with
    | Equivalence.Expr_equiv { name; cls; var; lhs; rhs } ->
      (* Note: the compiled chains use a temp target that we convert to a
         shared pattern variable by compiling with a non-temp marker. *)
      let map_rule =
        Rule.rewrite (name ^ "/map")
          ~lhs:(compile_map_side ~side:"L" ~var ~cls ~target:result_var lhs)
          ~rhs:(compile_map_side ~side:"R" ~var ~cls ~target:result_var rhs)
      in
      let flat_rules =
        (* lift through flat as well; only meaningful (and only ever
           matching) for set-valued expressions *)
        match
          ( compile_flat_side ~side:"L" ~var ~cls ~target:result_var lhs,
            compile_flat_side ~side:"R" ~var ~cls ~target:result_var rhs )
        with
        | flhs, frhs -> [ Rule.rewrite (name ^ "/flat") ~lhs:flhs ~rhs:frhs ]
        | exception Underivable _ -> []
      in
      map_rule :: flat_rules
    | Equivalence.Cond_equiv { name; cls; var; lhs; rhs } ->
      [
        Rule.rewrite name
          ~lhs:(compile_select_side ~side:"L" ~var ~cls lhs)
          ~rhs:(compile_select_side ~side:"R" ~var ~cls rhs);
      ]
    | Equivalence.Implication { name; cls; var; antecedent; consequent } ->
      (* select<cond1>(?A) !-> natural_join(select<cond1>(?A),
                                            select<cond2>(?A)) *)
      let lhs = compile_select_side ~side:"L" ~var ~cls antecedent in
      let rhs =
        Pattern.PNaturalJoin
          (lhs, compile_select_side ~side:"R" ~var ~cls consequent)
      in
      [ Rule.rewrite name ~bidirectional:false ~apply_once:true ~lhs ~rhs ]
    | Equivalence.Query_method _ -> [])

(* A maintained set as a generator.  Every member of an owner's set
   names that owner as its target (the owner invariant,
   [Equivalence.owner_invariant], which the rule checker verifies), so
   over the full extent of the member class
     select<x IS-IN s>(map_property<s, S, y>(T(get<x, X>)))
   where the chain T computes y := T(x), is
     map_property<s, S, y>(T'(flat_property<x, S, y>(get<y, Y>)))
   — the owners' sets unnested, with T' the chain minus the step binding
   y re-binding T's intermediates so the references stay the same. *)
let generator schema (m : Equivalence.maintained) =
  let x = m.Equivalence.m_var and cls = m.Equivalence.member_cls in
  let set_prop = m.Equivalence.set_prop in
  let y = Restricted.temp_ref () and s = Restricted.temp_ref () in
  let chain =
    try Translate.compile_map ~target:y (Restricted.Get (x, cls)) m.Equivalence.target
    with Translate.Unsupported msg -> underivable "%s" msg
  in
  let owner =
    match List.assoc_opt y (Restricted.infer schema chain) with
    | Some (Vtype.TObj c) -> c
    | _ -> underivable "%s: the set owner is not an object" m.Equivalence.m_name
  in
  let rec generate_from = function
    | Restricted.Get _ ->
      Restricted.FlatProperty (x, set_prop, y, Restricted.Get (y, owner))
    | t -> (
      match Restricted.inputs t with
      | [ input ] -> Restricted.with_inputs t [ generate_from input ]
      | _ -> underivable "%s: the owner chain is not unary" m.Equivalence.m_name)
  in
  let below_owner =
    match Restricted.inputs chain with
    | [ input ] -> input
    | _ -> underivable "%s: the owner chain is not unary" m.Equivalence.m_name
  in
  let lhs =
    Restricted.SelectCmp
      ( Restricted.CIsIn,
        Restricted.ORef x,
        Restricted.ORef s,
        Restricted.MapProperty (s, set_prop, y, chain) )
  in
  let rhs = Restricted.MapProperty (s, set_prop, y, generate_from below_owner) in
  let pattern = to_pattern ~exact_gets:true ~side:"G" ~var:x ~cls in
  Rule.rewrite (m.Equivalence.m_name ^ "/generator") ~bidirectional:false
    ~lhs:(pattern lhs) ~rhs:(pattern rhs)

let implementations schema (spec : Equivalence.t) : Rule.implementation list =
  match Equivalence.validate schema spec with
  | Error msg -> underivable "%s" msg
  | Ok () -> (
    match spec with
    | Equivalence.Query_method { name; cls; var; cond; meth_cls; meth; args } ->
      let lhs = compile_select_side ~side:"L" ~var ~cls cond in
      let build (_ctx : Rule.opt_ctx) (b : Pattern.bindings)
          (implement : Restricted.t -> Soqm_physical.Plan.t) =
        let scan_ref =
          match List.assoc_opt var b.Pattern.refs with
          | Some r -> r
          | None -> var
        in
        (* the method call needs constant arguments *)
        let resolve = function
          | Equivalence.Arg_const v -> Some v
          | Equivalence.Arg_param p -> (
            match List.assoc_opt p b.Pattern.operands with
            | Some (Restricted.OConst v) -> Some v
            | _ -> None)
        in
        match List.map resolve args with
        | resolved when List.for_all Option.is_some resolved ->
          let consts = List.map Option.get resolved in
          let scan =
            Soqm_physical.Plan.MethodScan (scan_ref, meth_cls, meth, consts)
          in
          (match List.assoc_opt "A" b.Pattern.plans with
          | Some (Restricted.Get _) ->
            (* selection over the full extent: the method call alone *)
            Some scan
          | Some input ->
            (* selection over a subset: intersect with it (the paper's
               INTERSECTION in plan PQ) *)
            Some (Soqm_physical.Plan.NaturalJoin (scan, implement input))
          | None -> None)
        | _ -> None
      in
      [ Rule.implementation name ~lhs ~build ]
    | Equivalence.Expr_equiv _ | Equivalence.Cond_equiv _
    | Equivalence.Implication _ ->
      [])

let rules_of_specs schema specs =
  let transforms = List.concat_map (transformations schema) specs in
  let impls = List.concat_map (implementations schema) specs in
  (transforms, impls)
