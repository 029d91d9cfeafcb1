type binop =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | IsIn
  | IsSubset
  | And
  | Or
  | Add
  | Sub
  | Mul
  | Div
  | Concat
  | IndexOp
  | UnionOp
  | InterOp
  | DiffOp

type t =
  | Const of Value.t
  | Self
  | Param of string
  | Ref of string
  | ClassObj of string
  | Prop of t * string
  | Call of t * string * t list
  | Binop of binop * t * t
  | Not of t
  | TupleE of (string * t) list
  | SetE of t list
  | If of t * t * t

let compare = Stdlib.compare
let equal a b = compare a b = 0

let rec refs_acc acc = function
  | Const _ | Self | Param _ | ClassObj _ -> acc
  | Ref r -> r :: acc
  | Prop (e, _) -> refs_acc acc e
  | Call (e, _, args) -> List.fold_left refs_acc (refs_acc acc e) args
  | Binop (_, a, b) -> refs_acc (refs_acc acc a) b
  | Not e -> refs_acc acc e
  | TupleE fields -> List.fold_left (fun acc (_, e) -> refs_acc acc e) acc fields
  | SetE es -> List.fold_left refs_acc acc es
  | If (c, a, b) -> refs_acc (refs_acc (refs_acc acc c) a) b

let refs e = List.sort_uniq String.compare (refs_acc [] e)

let rec map_sub f = function
  | (Const _ | Self | Param _ | Ref _ | ClassObj _) as e -> e
  | Prop (e, p) -> Prop (f e, p)
  | Call (e, m, args) -> Call (f e, m, List.map f args)
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Not e -> Not (f e)
  | TupleE fields -> TupleE (List.map (fun (l, e) -> (l, f e)) fields)
  | SetE es -> SetE (List.map f es)
  | If (c, a, b) -> If (f c, f a, f b)

and subst_ref r repl body =
  match body with
  | Ref r' when String.equal r r' -> repl
  | e -> map_sub (subst_ref r repl) e

let rename_ref ~old_ref ~new_ref e = subst_ref old_ref (Ref new_ref) e

let rec methods_acc acc = function
  | Const _ | Self | Param _ | Ref _ | ClassObj _ -> acc
  | Prop (e, _) -> methods_acc acc e
  | Call (e, m, args) ->
    List.fold_left methods_acc (methods_acc (m :: acc) e) args
  | Binop (_, a, b) -> methods_acc (methods_acc acc a) b
  | Not e -> methods_acc acc e
  | TupleE fields ->
    List.fold_left (fun acc (_, e) -> methods_acc acc e) acc fields
  | SetE es -> List.fold_left methods_acc acc es
  | If (c, a, b) -> methods_acc (methods_acc (methods_acc acc c) a) b

let methods_called e = List.sort_uniq String.compare (methods_acc [] e)

let rec consts_acc acc = function
  | Const v -> v :: acc
  | Self | Param _ | Ref _ | ClassObj _ -> acc
  | Prop (e, _) | Not e -> consts_acc acc e
  | Call (e, _, args) -> List.fold_left consts_acc (consts_acc acc e) args
  | Binop (_, a, b) -> consts_acc (consts_acc acc a) b
  | TupleE fields -> List.fold_left (fun acc (_, e) -> consts_acc acc e) acc fields
  | SetE es -> List.fold_left consts_acc acc es
  | If (c, a, b) -> consts_acc (consts_acc (consts_acc acc c) a) b

let consts e = consts_acc [] e

let is_boolean_shape = function
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge | IsIn | IsSubset | And | Or), _, _)
  | Not _
  | Const (Value.Bool _) ->
    true
  | _ -> false

let rec size = function
  | Const _ | Self | Param _ | Ref _ | ClassObj _ -> 1
  | Prop (e, _) -> 1 + size e
  | Call (e, _, args) -> List.fold_left (fun n a -> n + size a) (1 + size e) args
  | Binop (_, a, b) -> 1 + size a + size b
  | Not e -> 1 + size e
  | TupleE fields -> List.fold_left (fun n (_, e) -> n + size e) 1 fields
  | SetE es -> List.fold_left (fun n e -> n + size e) 1 es
  | If (c, a, b) -> 1 + size c + size a + size b

let binop_name = function
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | IsIn -> "IS-IN"
  | IsSubset -> "IS-SUBSET"
  | And -> "AND"
  | Or -> "OR"
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Concat -> "++"
  | IndexOp -> "[]"
  | UnionOp -> "UNION"
  | InterOp -> "INTERSECTION"
  | DiffOp -> "DIFF"

let pp_binop ppf op = Format.pp_print_string ppf (binop_name op)

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Self -> Format.pp_print_string ppf "SELF"
  | Param p -> Format.pp_print_string ppf p
  | Ref r -> Format.pp_print_string ppf r
  | ClassObj c -> Format.pp_print_string ppf c
  | Prop (e, p) -> Format.fprintf ppf "%a.%s" pp_atom e p
  | Call (e, m, args) ->
    Format.fprintf ppf "%a->%s(%a)" pp_atom e m
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
      args
  | Binop (IndexOp, a, b) -> Format.fprintf ppf "%a[%a]" pp_atom a pp b
  | Binop (op, a, b) ->
    Format.fprintf ppf "%a %s %a" pp_atom a (binop_name op) pp_atom b
  | Not e -> Format.fprintf ppf "NOT %a" pp_atom e
  | TupleE fields ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf (l, e) -> Format.fprintf ppf "%s: %a" l pp e))
      fields
  | SetE es ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
      es
  | If (c, a, b) -> Format.fprintf ppf "IF %a THEN %a ELSE %a" pp c pp a pp b

and pp_atom ppf e =
  match e with
  | Binop _ | Not _ | If _ -> Format.fprintf ppf "(%a)" pp e
  | _ -> pp ppf e

let to_string e = Format.asprintf "%a" pp e
