open Soqm_vml

type arg = Arg_param of string | Arg_const of Value.t

type t =
  | Expr_equiv of { name : string; cls : string; var : string; lhs : Expr.t; rhs : Expr.t }
  | Cond_equiv of { name : string; cls : string; var : string; lhs : Expr.t; rhs : Expr.t }
  | Implication of {
      name : string;
      cls : string;
      var : string;
      antecedent : Expr.t;
      consequent : Expr.t;
    }
  | Query_method of {
      name : string;
      cls : string;
      var : string;
      cond : Expr.t;
      meth_cls : string;
      meth : string;
      args : arg list;
    }

let name = function
  | Expr_equiv { name; _ }
  | Cond_equiv { name; _ }
  | Implication { name; _ }
  | Query_method { name; _ } ->
    name

let check_sides schema ~what ~cls ~var exprs =
  if Option.is_none (Schema.find_class schema cls) then
    Error (Printf.sprintf "%s: unknown class %s" what cls)
  else
    let bad_refs =
      List.concat_map
        (fun e -> List.filter (fun r -> not (String.equal r var)) (Expr.refs e))
        exprs
    in
    if bad_refs <> [] then
      Error
        (Printf.sprintf "%s: sides reference %s besides the spec variable %s"
           what (String.concat ", " bad_refs) var)
    else Ok ()

let validate schema = function
  | Expr_equiv { name; cls; var; lhs; rhs } ->
    check_sides schema ~what:name ~cls ~var [ lhs; rhs ]
  | Cond_equiv { name; cls; var; lhs; rhs } -> (
    match check_sides schema ~what:name ~cls ~var [ lhs; rhs ] with
    | Error _ as e -> e
    | Ok () ->
      if Expr.is_boolean_shape lhs && Expr.is_boolean_shape rhs then Ok ()
      else Error (name ^ ": condition equivalence sides must be boolean"))
  | Implication { name; cls; var; antecedent; consequent } -> (
    match check_sides schema ~what:name ~cls ~var [ antecedent; consequent ] with
    | Error _ as e -> e
    | Ok () ->
      if Expr.is_boolean_shape antecedent && Expr.is_boolean_shape consequent
      then Ok ()
      else Error (name ^ ": implication sides must be boolean"))
  | Query_method { name; cls; var; cond; meth_cls; meth; _ } -> (
    match check_sides schema ~what:name ~cls ~var [ cond ] with
    | Error _ as e -> e
    | Ok () -> (
      match Schema.own_method schema ~cls:meth_cls ~meth with
      | Some { Schema.returns = Vtype.TSet (Vtype.TObj c); _ } when String.equal c cls ->
        Ok ()
      | Some _ ->
        Error
          (Printf.sprintf "%s: %s->%s does not return a set of %s" name meth_cls
             meth cls)
      | None ->
        Error (Printf.sprintf "%s: %s has no OWNTYPE method %s" name meth_cls meth)))

type maintained = {
  m_name : string;
  member_cls : string;
  m_var : string;
  m_antecedent : Expr.t;
  target : Expr.t;
  set_prop : string;
}

let maintained = function
  | Implication
      {
        name;
        cls;
        var;
        antecedent;
        consequent = Expr.Binop (Expr.IsIn, Expr.Ref v, Expr.Prop (target, set_prop));
      }
    when String.equal v var ->
    Some
      {
        m_name = name;
        member_cls = cls;
        m_var = var;
        m_antecedent = antecedent;
        target;
        set_prop;
      }
  | _ -> None

let owner_classes schema m =
  List.filter_map
    (fun (cd : Schema.class_def) ->
      let holds (p : Schema.property) =
        String.equal p.Schema.prop_name m.set_prop
        && p.Schema.prop_type = Vtype.TSet (Vtype.TObj m.member_cls)
      in
      if List.exists holds cd.Schema.properties then Some cd.Schema.cls_name
      else None)
    (Schema.classes schema)

(* FORALL x IN C (D: Y): x IS-IN D.S => T(x) == D — every member of an
   owner's maintained set names that owner as its target. *)
let owner_invariant (m : maintained) =
  Implication
    {
      name = m.m_name ^ "/owner";
      cls = m.member_cls;
      var = m.m_var;
      antecedent =
        Expr.Binop
          ( Expr.IsIn,
            Expr.Ref m.m_var,
            Expr.Prop (Expr.Param "D", m.set_prop) );
      consequent = Expr.Binop (Expr.Eq, m.target, Expr.Param "D");
    }

let from_inverse_links schema =
  List.concat_map
    (fun (cd : Schema.class_def) ->
      List.filter_map
        (fun (p : Schema.property) ->
          match p.Schema.inverse, p.Schema.prop_type with
          (* only the scalar side induces the membership equivalence *)
          | Some (_c2, p2), Vtype.TObj _ ->
            let var = "x" in
            Some
              (Cond_equiv
                 {
                   name =
                     Printf.sprintf "inverse-%s.%s" cd.Schema.cls_name
                       p.Schema.prop_name;
                   cls = cd.Schema.cls_name;
                   var;
                   lhs =
                     Expr.Binop
                       (Expr.IsIn, Expr.Prop (Expr.Ref var, p.Schema.prop_name),
                        Expr.Param "D");
                   rhs =
                     Expr.Binop
                       (Expr.IsIn, Expr.Ref var, Expr.Prop (Expr.Param "D", p2));
                 })
          | _ -> None)
        cd.Schema.properties)
    (Schema.classes schema)

let pp ppf = function
  | Expr_equiv { name; cls; var; lhs; rhs } ->
    Format.fprintf ppf "%s: FORALL %s IN %s: %a == %a" name var cls Expr.pp lhs
      Expr.pp rhs
  | Cond_equiv { name; cls; var; lhs; rhs } ->
    Format.fprintf ppf "%s: FORALL %s IN %s: %a <=> %a" name var cls Expr.pp lhs
      Expr.pp rhs
  | Implication { name; cls; var; antecedent; consequent } ->
    Format.fprintf ppf "%s: FORALL %s IN %s: %a => %a" name var cls Expr.pp
      antecedent Expr.pp consequent
  | Query_method { name; cls; var; cond; meth_cls; meth; args } ->
    Format.fprintf ppf
      "%s: (ACCESS %s FROM %s IN %s WHERE %a) == %s->%s(%s)" name var var cls
      Expr.pp cond meth_cls meth
      (String.concat ", "
         (List.map
            (function Arg_param p -> p | Arg_const v -> Value.to_string v)
            args))
