open Soqm_vml

type operand = ORef of string | OConst of Value.t | OParam of string
type receiver = RRef of string | RClass of string
type cmp = CEq | CNeq | CLt | CLe | CGt | CGe | CIsIn | CIsSubset

type opname =
  | OpBin of Expr.binop
  | OpNot
  | OpIdent
  | OpTuple of string list
  | OpSet

type t =
  | Unit
  | Get of string * string
  | NaturalJoin of t * t
  | Union of t * t
  | Diff of t * t
  | Cross of t * t
  | SelectCmp of cmp * operand * operand * t
  | JoinCmp of cmp * string * string * t * t
  | MapProperty of string * string * string * t
  | MapMethod of string * string * receiver * operand list * t
  | FlatProperty of string * string * string * t
  | FlatMethod of string * string * receiver * operand list * t
  | MapOperator of string * opname * operand list * t
  | FlatOperator of string * opname * operand list * t
  | Project of string list * t
  | MethodSource of string * string * string * operand list

let compare = Stdlib.compare
let equal a b = compare a b = 0
let fail fmt = Format.kasprintf invalid_arg fmt

let cmp_to_binop = function
  | CEq -> Expr.Eq
  | CNeq -> Expr.Neq
  | CLt -> Expr.Lt
  | CLe -> Expr.Le
  | CGt -> Expr.Gt
  | CGe -> Expr.Ge
  | CIsIn -> Expr.IsIn
  | CIsSubset -> Expr.IsSubset

let binop_to_cmp = function
  | Expr.Eq -> Some CEq
  | Expr.Neq -> Some CNeq
  | Expr.Lt -> Some CLt
  | Expr.Le -> Some CLe
  | Expr.Gt -> Some CGt
  | Expr.Ge -> Some CGe
  | Expr.IsIn -> Some CIsIn
  | Expr.IsSubset -> Some CIsSubset
  | _ -> None

let operand_expr = function
  | ORef r -> Expr.Ref r
  | OConst v -> Expr.Const v
  | OParam p -> Expr.Param p
let receiver_expr = function RRef r -> Expr.Ref r | RClass c -> Expr.ClassObj c

let op_expr opname operands =
  match opname, operands with
  | OpBin b, [ x; y ] -> Expr.Binop (b, operand_expr x, operand_expr y)
  | OpNot, [ x ] -> Expr.Not (operand_expr x)
  | OpIdent, [ x ] -> operand_expr x
  | OpTuple labels, xs when List.length labels = List.length xs ->
    Expr.TupleE (List.map2 (fun l x -> (l, operand_expr x)) labels xs)
  | OpSet, xs -> Expr.SetE (List.map operand_expr xs)
  | _ -> fail "Restricted: operator arity mismatch"

let rec to_general = function
  | Unit -> General.Unit
  | Get (a, c) -> General.Get (a, c)
  | NaturalJoin (s1, s2) -> General.NaturalJoin (to_general s1, to_general s2)
  | Union (s1, s2) -> General.Union (to_general s1, to_general s2)
  | Diff (s1, s2) -> General.Diff (to_general s1, to_general s2)
  | Cross (s1, s2) ->
    General.Join (Expr.Const (Value.Bool true), to_general s1, to_general s2)
  | SelectCmp (c, x, y, s) ->
    General.Select
      (Expr.Binop (cmp_to_binop c, operand_expr x, operand_expr y), to_general s)
  | JoinCmp (c, a1, a2, s1, s2) ->
    General.Join
      ( Expr.Binop (cmp_to_binop c, Expr.Ref a1, Expr.Ref a2),
        to_general s1, to_general s2 )
  | MapProperty (a, p, a1, s) ->
    General.Map (a, Expr.Prop (Expr.Ref a1, p), to_general s)
  | MapMethod (a, m, recv, args, s) ->
    General.Map
      ( a,
        Expr.Call (receiver_expr recv, m, List.map operand_expr args),
        to_general s )
  | FlatProperty (a, p, a1, s) ->
    General.Flat (a, Expr.Prop (Expr.Ref a1, p), to_general s)
  | FlatMethod (a, m, recv, args, s) ->
    General.Flat
      ( a,
        Expr.Call (receiver_expr recv, m, List.map operand_expr args),
        to_general s )
  | MapOperator (a, op, xs, s) -> General.Map (a, op_expr op xs, to_general s)
  | FlatOperator (a, op, xs, s) -> General.Flat (a, op_expr op xs, to_general s)
  | Project (rs, s) -> General.Project (rs, to_general s)
  | MethodSource (a, cls, m, args) ->
    General.MethodSource
      (a, Expr.Call (Expr.ClassObj cls, m, List.map operand_expr args))

let refs t = General.refs (to_general t)

let rec size = function
  | Unit | Get _ | MethodSource _ -> 1
  | SelectCmp (_, _, _, s)
  | MapProperty (_, _, _, s)
  | MapMethod (_, _, _, _, s)
  | FlatProperty (_, _, _, s)
  | FlatMethod (_, _, _, _, s)
  | MapOperator (_, _, _, s)
  | FlatOperator (_, _, _, s)
  | Project (_, s) ->
    1 + size s
  | NaturalJoin (s1, s2)
  | Union (s1, s2)
  | Diff (s1, s2)
  | Cross (s1, s2)
  | JoinCmp (_, _, _, s1, s2) ->
    1 + size s1 + size s2

let inputs = function
  | Unit | Get _ | MethodSource _ -> []
  | SelectCmp (_, _, _, s)
  | MapProperty (_, _, _, s)
  | MapMethod (_, _, _, _, s)
  | FlatProperty (_, _, _, s)
  | FlatMethod (_, _, _, _, s)
  | MapOperator (_, _, _, s)
  | FlatOperator (_, _, _, s)
  | Project (_, s) ->
    [ s ]
  | NaturalJoin (s1, s2)
  | Union (s1, s2)
  | Diff (s1, s2)
  | Cross (s1, s2)
  | JoinCmp (_, _, _, s1, s2) ->
    [ s1; s2 ]

let with_inputs t new_inputs =
  match t, new_inputs with
  | (Unit | Get _ | MethodSource _), [] -> t
  | SelectCmp (c, x, y, _), [ s ] -> SelectCmp (c, x, y, s)
  | MapProperty (a, p, a1, _), [ s ] -> MapProperty (a, p, a1, s)
  | MapMethod (a, m, r, xs, _), [ s ] -> MapMethod (a, m, r, xs, s)
  | FlatProperty (a, p, a1, _), [ s ] -> FlatProperty (a, p, a1, s)
  | FlatMethod (a, m, r, xs, _), [ s ] -> FlatMethod (a, m, r, xs, s)
  | MapOperator (a, op, xs, _), [ s ] -> MapOperator (a, op, xs, s)
  | FlatOperator (a, op, xs, _), [ s ] -> FlatOperator (a, op, xs, s)
  | Project (rs, _), [ s ] -> Project (rs, s)
  | NaturalJoin _, [ s1; s2 ] -> NaturalJoin (s1, s2)
  | Union _, [ s1; s2 ] -> Union (s1, s2)
  | Diff _, [ s1; s2 ] -> Diff (s1, s2)
  | Cross _, [ s1; s2 ] -> Cross (s1, s2)
  | JoinCmp (c, a1, a2, _, _), [ s1; s2 ] -> JoinCmp (c, a1, a2, s1, s2)
  | _ -> fail "Restricted.with_inputs: arity mismatch"

let rec subtrees t = t :: List.concat_map subtrees (inputs t)

let temp_counter = ref 0

let temp_ref () =
  incr temp_counter;
  Printf.sprintf "$%d" !temp_counter

let is_temp_ref r = String.length r > 0 && r.[0] = '$'

let rename_operand old_ref new_ref = function
  | ORef r when String.equal r old_ref -> ORef new_ref
  | x -> x

let rename_receiver old_ref new_ref = function
  | RRef r when String.equal r old_ref -> RRef new_ref
  | x -> x

let rec rename_ref ~old_ref ~new_ref t =
  let rn = rename_ref ~old_ref ~new_ref in
  let rr r = if String.equal r old_ref then new_ref else r in
  let ro = rename_operand old_ref new_ref in
  let rv = rename_receiver old_ref new_ref in
  match t with
  | Unit -> Unit
  | Get (a, c) -> Get (rr a, c)
  | NaturalJoin (s1, s2) -> NaturalJoin (rn s1, rn s2)
  | Union (s1, s2) -> Union (rn s1, rn s2)
  | Diff (s1, s2) -> Diff (rn s1, rn s2)
  | Cross (s1, s2) -> Cross (rn s1, rn s2)
  | SelectCmp (c, x, y, s) -> SelectCmp (c, ro x, ro y, rn s)
  | JoinCmp (c, a1, a2, s1, s2) -> JoinCmp (c, rr a1, rr a2, rn s1, rn s2)
  | MapProperty (a, p, a1, s) -> MapProperty (rr a, p, rr a1, rn s)
  | MapMethod (a, m, r, xs, s) -> MapMethod (rr a, m, rv r, List.map ro xs, rn s)
  | FlatProperty (a, p, a1, s) -> FlatProperty (rr a, p, rr a1, rn s)
  | FlatMethod (a, m, r, xs, s) -> FlatMethod (rr a, m, rv r, List.map ro xs, rn s)
  | MapOperator (a, op, xs, s) -> MapOperator (rr a, op, List.map ro xs, rn s)
  | FlatOperator (a, op, xs, s) -> FlatOperator (rr a, op, List.map ro xs, rn s)
  | Project (rs, s) -> Project (List.map rr rs, rn s)
  | MethodSource (a, cls, m, xs) -> MethodSource (rr a, cls, m, List.map ro xs)

let rec map_operands f t =
  let t = with_inputs t (List.map (map_operands f) (inputs t)) in
  match t with
  | SelectCmp (c, x, y, s) -> SelectCmp (c, f x, f y, s)
  | MapMethod (a, m, r, xs, s) -> MapMethod (a, m, r, List.map f xs, s)
  | FlatMethod (a, m, r, xs, s) -> FlatMethod (a, m, r, List.map f xs, s)
  | MapOperator (a, op, xs, s) -> MapOperator (a, op, List.map f xs, s)
  | FlatOperator (a, op, xs, s) -> FlatOperator (a, op, List.map f xs, s)
  | MethodSource (a, cls, m, xs) -> MethodSource (a, cls, m, List.map f xs)
  | Unit | Get _ | NaturalJoin _ | Union _ | Diff _ | Cross _ | JoinCmp _
  | MapProperty _ | FlatProperty _ | Project _ ->
    t

(* Temporary references of a term in a deterministic traversal order:
   bottom-up (inputs first), then the operator's own references.  A
   temporary's first occurrence is therefore where it is produced. *)
let temp_occurrence_order t =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let note r =
    if is_temp_ref r && not (Hashtbl.mem seen r) then (
      Hashtbl.replace seen r ();
      order := r :: !order)
  in
  let note_operand = function ORef r -> note r | OConst _ | OParam _ -> () in
  let note_receiver = function RRef r -> note r | RClass _ -> () in
  let rec go t =
    List.iter go (inputs t);
    match t with
    | Unit -> ()
    | Get (a, _) -> note a
    | MethodSource (a, _, _, xs) ->
      List.iter note_operand xs;
      note a
    | NaturalJoin _ | Union _ | Diff _ | Cross _ -> ()
    | SelectCmp (_, x, y, _) ->
      note_operand x;
      note_operand y
    | JoinCmp (_, a1, a2, _, _) ->
      note a1;
      note a2
    | MapProperty (a, _, a1, _) | FlatProperty (a, _, a1, _) ->
      note a1;
      note a
    | MapMethod (a, _, r, xs, _) | FlatMethod (a, _, r, xs, _) ->
      note_receiver r;
      List.iter note_operand xs;
      note a
    | MapOperator (a, _, xs, _) | FlatOperator (a, _, xs, _) ->
      List.iter note_operand xs;
      note a
    | Project (rs, _) -> List.iter note rs
  in
  go t;
  List.rev !order

let alpha_canonical t =
  let temps = temp_occurrence_order t in
  (* two passes so that renaming cannot capture: first move everything to
     reserved names, then to the canonical ones *)
  let staged =
    List.mapi (fun i r -> (r, Printf.sprintf "$stage!%d" i)) temps
  in
  let t =
    List.fold_left
      (fun acc (old_ref, new_ref) -> rename_ref ~old_ref ~new_ref acc)
      t staged
  in
  List.fold_left
    (fun acc (i, (_, staged_name)) ->
      rename_ref ~old_ref:staged_name ~new_ref:(Printf.sprintf "$%d" (i + 1)) acc)
    t
    (List.mapi (fun i x -> (i, x)) staged)

(* Static typing of references, mirroring the set-lifted access
   semantics of the runtime. *)
let lifted_access prop_ty receiver_ty =
  match receiver_ty with
  | Vtype.TObj _ -> Some prop_ty
  | Vtype.TSet (Vtype.TObj _) -> (
    match prop_ty with
    | Vtype.TSet _ -> Some prop_ty
    | scalar -> Some (Vtype.TSet scalar))
  | _ -> None

let receiver_class env = function
  | RClass c -> Some (`Own c)
  | RRef r -> (
    match List.assoc_opt r env with
    | Some (Vtype.TObj c) -> Some (`Inst c)
    | Some (Vtype.TSet (Vtype.TObj c)) -> Some (`InstSet c)
    | _ -> None)

let method_return schema env recv m =
  match receiver_class env recv with
  | Some (`Own c) ->
    Option.map (fun s -> s.Schema.returns) (Schema.own_method schema ~cls:c ~meth:m)
  | Some (`Inst c) ->
    Option.map (fun s -> s.Schema.returns) (Schema.inst_method schema ~cls:c ~meth:m)
  | Some (`InstSet c) -> (
    match Schema.inst_method schema ~cls:c ~meth:m with
    | Some s -> (
      match s.Schema.returns with
      | Vtype.TSet _ as ty -> Some ty
      | scalar -> Some (Vtype.TSet scalar))
    | None -> None)
  | None -> None

let prop_type_via schema env a1 p =
  match List.assoc_opt a1 env with
  | Some (Vtype.TObj c) | Some (Vtype.TSet (Vtype.TObj c)) -> (
    match Schema.property_type schema ~cls:c ~prop:p with
    | Some ty -> lifted_access ty (List.assoc a1 env)
    | None -> None)
  | _ -> None

let operand_type env = function
  | ORef r -> List.assoc_opt r env
  | OConst v -> Vtype.of_value v
  | OParam _ -> None

let op_result_type env opname operands =
  match opname with
  | OpBin
      (Expr.Eq | Neq | Lt | Le | Gt | Ge | IsIn | IsSubset | And | Or) ->
    Some Vtype.TBool
  | OpNot -> Some Vtype.TBool
  | OpBin Expr.Concat -> Some Vtype.TString
  | OpBin (Expr.Add | Sub | Mul | Div) -> (
    match List.filter_map (operand_type env) operands with
    | [ Vtype.TInt; Vtype.TInt ] -> Some Vtype.TInt
    | _ -> Some Vtype.TReal)
  | OpBin Expr.IndexOp -> (
    match operands with
    | x :: _ -> (
      match operand_type env x with
      | Some (Vtype.TArray elt) -> Some elt
      | Some (Vtype.TDict (_, v)) -> Some v
      | _ -> None)
    | [] -> None)
  | OpBin (Expr.UnionOp | InterOp | DiffOp) -> (
    match operands with
    | x :: _ -> operand_type env x
    | [] -> None)
  | OpIdent -> ( match operands with [ x ] -> operand_type env x | _ -> None)
  | OpTuple labels ->
    let tys = List.map (operand_type env) operands in
    if List.for_all Option.is_some tys && List.length labels = List.length tys
    then Some (Vtype.ttuple (List.map2 (fun l t -> (l, Option.get t)) labels tys))
    else None
  | OpSet -> (
    match operands with
    | x :: _ -> Option.map (fun t -> Vtype.TSet t) (operand_type env x)
    | [] -> Some (Vtype.TSet Vtype.TAnyObj))

let rec infer schema t : (string * Vtype.t) list =
  match t with
  | Unit -> []
  | Get (a, c) -> [ (a, Vtype.TObj c) ]
  | MethodSource (a, cls, m, _) -> (
    match Schema.own_method schema ~cls ~meth:m with
    | Some { Schema.returns = Vtype.TSet elt; _ } -> [ (a, elt) ]
    | _ -> [])
  | NaturalJoin (s1, s2) | Cross (s1, s2) | JoinCmp (_, _, _, s1, s2) ->
    let e1 = infer schema s1 in
    let e2 = infer schema s2 in
    e1 @ List.filter (fun (r, _) -> not (List.mem_assoc r e1)) e2
  | Union (s1, s2) | Diff (s1, s2) ->
    let e1 = infer schema s1 in
    let e2 = infer schema s2 in
    (* keep only agreeing entries *)
    List.filter
      (fun (r, ty) ->
        match List.assoc_opt r e2 with
        | Some ty' -> Vtype.equal ty ty'
        | None -> false)
      e1
  | SelectCmp (_, _, _, s) -> infer schema s
  | MapProperty (a, p, a1, s) -> (
    let env = infer schema s in
    match prop_type_via schema env a1 p with
    | Some ty -> (a, ty) :: env
    | None -> env)
  | FlatProperty (a, p, a1, s) -> (
    let env = infer schema s in
    match prop_type_via schema env a1 p with
    | Some (Vtype.TSet elt) -> (a, elt) :: env
    | _ -> env)
  | MapMethod (a, m, recv, _, s) -> (
    let env = infer schema s in
    match method_return schema env recv m with
    | Some ty -> (a, ty) :: env
    | None -> env)
  | FlatMethod (a, m, recv, _, s) -> (
    let env = infer schema s in
    match method_return schema env recv m with
    | Some (Vtype.TSet elt) -> (a, elt) :: env
    | _ -> env)
  | MapOperator (a, op, xs, s) -> (
    let env = infer schema s in
    match op_result_type env op xs with
    | Some ty -> (a, ty) :: env
    | None -> env)
  | FlatOperator (a, op, xs, s) -> (
    let env = infer schema s in
    match op_result_type env op xs with
    | Some (Vtype.TSet elt) -> (a, elt) :: env
    | _ -> env)
  | Project (rs, s) ->
    List.filter (fun (r, _) -> List.mem r rs) (infer schema s)

let methods_used t =
  let rec go acc = function
    | Unit | Get _ -> acc
    | MethodSource (_, _, m, _) -> m :: acc
    | MapMethod (_, m, _, _, s) | FlatMethod (_, m, _, _, s) -> go (m :: acc) s
    | SelectCmp (_, _, _, s)
    | MapProperty (_, _, _, s)
    | FlatProperty (_, _, _, s)
    | MapOperator (_, _, _, s)
    | FlatOperator (_, _, _, s)
    | Project (_, s) ->
      go acc s
    | NaturalJoin (s1, s2)
    | Union (s1, s2)
    | Diff (s1, s2)
    | Cross (s1, s2)
    | JoinCmp (_, _, _, s1, s2) ->
      go (go acc s1) s2
  in
  List.sort_uniq String.compare (go [] t)

let cmp_name = function
  | CEq -> "=="
  | CNeq -> "!="
  | CLt -> "<"
  | CLe -> "<="
  | CGt -> ">"
  | CGe -> ">="
  | CIsIn -> "IS-IN"
  | CIsSubset -> "IS-SUBSET"

let pp_operand ppf = function
  | ORef r -> Format.pp_print_string ppf r
  | OConst v -> Value.pp ppf v
  | OParam p -> Format.fprintf ppf "?%s" p

let pp_receiver ppf = function
  | RRef r -> Format.pp_print_string ppf r
  | RClass c -> Format.pp_print_string ppf c

let opname_str = function
  | OpBin b -> Format.asprintf "%a" Expr.pp_binop b
  | OpNot -> "NOT"
  | OpIdent -> "ident"
  | OpTuple labels -> "tuple[" ^ String.concat "," labels ^ "]"
  | OpSet -> "set"

let pp_operands ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    pp_operand ppf xs

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "unit"
  | Get (a, c) -> Format.fprintf ppf "get<%s, %s>" a c
  | NaturalJoin (s1, s2) ->
    Format.fprintf ppf "@[<v2>natural_join(@,%a,@,%a)@]" pp s1 pp s2
  | Union (s1, s2) -> Format.fprintf ppf "@[<v2>union(@,%a,@,%a)@]" pp s1 pp s2
  | Diff (s1, s2) -> Format.fprintf ppf "@[<v2>diff(@,%a,@,%a)@]" pp s1 pp s2
  | Cross (s1, s2) ->
    Format.fprintf ppf "@[<v2>join<true>(@,%a,@,%a)@]" pp s1 pp s2
  | SelectCmp (c, x, y, s) ->
    Format.fprintf ppf "@[<v2>select<%a %s %a>(@,%a)@]" pp_operand x
      (cmp_name c) pp_operand y pp s
  | JoinCmp (c, a1, a2, s1, s2) ->
    Format.fprintf ppf "@[<v2>join<%s %s %s>(@,%a,@,%a)@]" a1 (cmp_name c) a2 pp
      s1 pp s2
  | MapProperty (a, p, a1, s) ->
    Format.fprintf ppf "@[<v2>map_property<%s, %s, %s>(@,%a)@]" a p a1 pp s
  | MapMethod (a, m, r, xs, s) ->
    Format.fprintf ppf "@[<v2>map_method<%s, %s, %a, <%a>>(@,%a)@]" a m
      pp_receiver r pp_operands xs pp s
  | FlatProperty (a, p, a1, s) ->
    Format.fprintf ppf "@[<v2>flat_property<%s, %s, %s>(@,%a)@]" a p a1 pp s
  | FlatMethod (a, m, r, xs, s) ->
    Format.fprintf ppf "@[<v2>flat_method<%s, %s, %a, <%a>>(@,%a)@]" a m
      pp_receiver r pp_operands xs pp s
  | MapOperator (a, op, xs, s) ->
    Format.fprintf ppf "@[<v2>map_operator<%s, %s, %a>(@,%a)@]" a
      (opname_str op) pp_operands xs pp s
  | FlatOperator (a, op, xs, s) ->
    Format.fprintf ppf "@[<v2>flat_operator<%s, %s, %a>(@,%a)@]" a
      (opname_str op) pp_operands xs pp s
  | Project (rs, s) ->
    Format.fprintf ppf "@[<v2>project<%s>(@,%a)@]" (String.concat ", " rs) pp s
  | MethodSource (a, cls, m, xs) ->
    Format.fprintf ppf "source<%s, %s->%s(%a)>" a cls m pp_operands xs

let to_string t = Format.asprintf "%a" pp t
