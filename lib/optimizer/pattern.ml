open Soqm_vml
open Soqm_algebra

type pref = PRef of string | PRefVar of string
type pname = PName of string | PNameVar of string
type pcmp = PCmp of Restricted.cmp | PCmpVar of string

type poperand =
  | POperand of Restricted.operand
  | POperandVar of string
  | PORefOf of pref

type precv = PRecvClass of pname | PRecvRef of pref
type pargs = PArgs of poperand list | PArgsVar of string
type prefs = PRefs of pref list | PRefsVar of string

type t =
  | PAny of string
  | PAnyRanging of string * pref * string
  | PGet of pref * pname
  | PNaturalJoin of t * t
  | PUnion of t * t
  | PDiff of t * t
  | PCross of t * t
  | PSelectCmp of pcmp * poperand * poperand * t
  | PJoinCmp of pcmp * pref * pref * t * t
  | PMapProperty of pref * pname * pref * t
  | PMapMethod of pref * pname * precv * pargs * t
  | PFlatProperty of pref * pname * pref * t
  | PFlatMethod of pref * pname * precv * pargs * t
  | PMapOperator of pref * Restricted.opname * pargs * t
  | PFlatOperator of pref * Restricted.opname * pargs * t
  | PProject of prefs * t
  | PMethodSource of pref * pname * pname * pargs

type bindings = {
  plans : (string * Restricted.t) list;
  refs : (string * string) list;
  names : (string * string) list;
  cmps : (string * Restricted.cmp) list;
  operands : (string * Restricted.operand) list;
  arglists : (string * Restricted.operand list) list;
  reflists : (string * string list) list;
}

let empty =
  {
    plans = [];
    refs = [];
    names = [];
    cmps = [];
    operands = [];
    arglists = [];
    reflists = [];
  }

(* Generic binder: bind variable [v] to [x] under accessor/updater,
   failing (None) on conflicting earlier binding. *)
let bind get set eq v x b =
  match List.assoc_opt v (get b) with
  | Some existing -> if eq existing x then Some b else None
  | None -> Some (set b ((v, x) :: get b))

let bind_ref = bind (fun b -> b.refs) (fun b refs -> { b with refs }) String.equal
let bind_name = bind (fun b -> b.names) (fun b names -> { b with names }) String.equal
let bind_cmp = bind (fun b -> b.cmps) (fun b cmps -> { b with cmps }) ( = )

let bind_operand =
  bind (fun b -> b.operands) (fun b operands -> { b with operands }) ( = )

let bind_arglist =
  bind (fun b -> b.arglists) (fun b arglists -> { b with arglists }) ( = )

let bind_reflist =
  bind (fun b -> b.reflists) (fun b reflists -> { b with reflists }) ( = )

let bind_plan =
  bind (fun b -> b.plans) (fun b plans -> { b with plans }) Restricted.equal

let match_pref p r b =
  match p with
  | PRef r' -> if String.equal r r' then Some b else None
  | PRefVar v -> bind_ref v r b

let match_pname p n b =
  match p with
  | PName n' -> if String.equal n n' then Some b else None
  | PNameVar v -> bind_name v n b

let match_pcmp p c b =
  match p with
  | PCmp c' -> if c = c' then Some b else None
  | PCmpVar v -> bind_cmp v c b

let match_poperand p (x : Restricted.operand) b =
  match p with
  | POperand x' -> if x = x' then Some b else None
  | POperandVar v -> bind_operand v x b
  | PORefOf pr -> ( match x with Restricted.ORef r -> match_pref pr r b | _ -> None)

let match_precv p (r : Restricted.receiver) b =
  match p, r with
  | PRecvClass pn, Restricted.RClass c -> match_pname pn c b
  | PRecvRef pr, Restricted.RRef rr -> match_pref pr rr b
  | _ -> None

let match_pargs p (xs : Restricted.operand list) b =
  match p with
  | PArgsVar v -> bind_arglist v xs b
  | PArgs ps ->
    if List.length ps <> List.length xs then None
    else
      List.fold_left2
        (fun acc p x -> Option.bind acc (match_poperand p x))
        (Some b) ps xs

let match_prefs p (rs : string list) b =
  match p with
  | PRefsVar v -> bind_reflist v rs b
  | PRefs ps ->
    if List.length ps <> List.length rs then None
    else
      List.fold_left2
        (fun acc p r -> Option.bind acc (match_pref p r))
        (Some b) ps rs

(* Monadic helpers over lists of alternative bindings. *)
let opt_to_list = function Some b -> [ b ] | None -> []

let rec matches schema (pat : t) (term : Restricted.t) : bindings list =
  match_at schema pat term empty

and match_at schema pat term b : bindings list =
  match pat, term with
  | PAny v, _ -> opt_to_list (bind_plan v term b)
  | PAnyRanging (v, pr, cls), _ -> (
    let env = Restricted.infer schema term in
    match pr with
    | PRef r ->
      if List.assoc_opt r env = Some (Vtype.TObj cls) then
        opt_to_list (bind_plan v term b)
      else []
    | PRefVar rv -> (
      match List.assoc_opt rv b.refs with
      | Some r ->
        if List.assoc_opt r env = Some (Vtype.TObj cls) then
          opt_to_list (bind_plan v term b)
        else []
      | None ->
        (* enumerate candidate references of the right class *)
        List.concat_map
          (fun (r, ty) ->
            if ty = Vtype.TObj cls then
              match bind_ref rv r b with
              | Some b' -> opt_to_list (bind_plan v term b')
              | None -> []
            else [])
          env))
  | PGet (pa, pc), Restricted.Get (a, c) ->
    opt_to_list
      (Option.bind (match_pref pa a b) (fun b -> match_pname pc c b))
  | PNaturalJoin (p1, p2), Restricted.NaturalJoin (s1, s2)
  | PUnion (p1, p2), Restricted.Union (s1, s2)
  | PDiff (p1, p2), Restricted.Diff (s1, s2)
  | PCross (p1, p2), Restricted.Cross (s1, s2) ->
    List.concat_map (fun b' -> match_at schema p2 s2 b') (match_at schema p1 s1 b)
  | PSelectCmp (pc, px, py, pi), Restricted.SelectCmp (c, x, y, s) ->
    (match
       Option.bind (match_pcmp pc c b) (fun b ->
           Option.bind (match_poperand px x b) (match_poperand py y))
     with
    | Some b' -> match_at schema pi s b'
    | None -> [])
  | PJoinCmp (pc, pa1, pa2, p1, p2), Restricted.JoinCmp (c, a1, a2, s1, s2) ->
    (match
       Option.bind (match_pcmp pc c b) (fun b ->
           Option.bind (match_pref pa1 a1 b) (match_pref pa2 a2))
     with
    | Some b' ->
      List.concat_map
        (fun b'' -> match_at schema p2 s2 b'')
        (match_at schema p1 s1 b')
    | None -> [])
  | PMapProperty (pa, pp, pa1, pi), Restricted.MapProperty (a, p, a1, s)
  | PFlatProperty (pa, pp, pa1, pi), Restricted.FlatProperty (a, p, a1, s) -> (
    match
      Option.bind (match_pref pa a b) (fun b ->
          Option.bind (match_pname pp p b) (match_pref pa1 a1))
    with
    | Some b' -> match_at schema pi s b'
    | None -> [])
  | PMapMethod (pa, pm, pr, pxs, pi), Restricted.MapMethod (a, m, r, xs, s)
  | PFlatMethod (pa, pm, pr, pxs, pi), Restricted.FlatMethod (a, m, r, xs, s) -> (
    match
      Option.bind (match_pref pa a b) (fun b ->
          Option.bind (match_pname pm m b) (fun b ->
              Option.bind (match_precv pr r b) (fun b -> match_pargs pxs xs b)))
    with
    | Some b' -> match_at schema pi s b'
    | None -> [])
  | PMapOperator (pa, op, pxs, pi), Restricted.MapOperator (a, op', xs, s)
  | PFlatOperator (pa, op, pxs, pi), Restricted.FlatOperator (a, op', xs, s) -> (
    if op <> op' then []
    else
      match Option.bind (match_pref pa a b) (fun b -> match_pargs pxs xs b) with
      | Some b' -> match_at schema pi s b'
      | None -> [])
  | PProject (prs, pi), Restricted.Project (rs, s) -> (
    match match_prefs prs rs b with
    | Some b' -> match_at schema pi s b'
    | None -> [])
  | PMethodSource (pa, pc, pm, pxs), Restricted.MethodSource (a, c, m, xs) ->
    opt_to_list
      (Option.bind (match_pref pa a b) (fun b ->
           Option.bind (match_pname pc c b) (fun b ->
               Option.bind (match_pname pm m b) (fun b -> match_pargs pxs xs b))))
  | _ -> []

exception Unbound of string

let instantiate ~rule ~fresh_seed (b : bindings) (template : t) : Restricted.t =
  let fresh_names = Hashtbl.create 4 in
  let resolve_ref = function
    | PRef r -> r
    | PRefVar v -> (
      match List.assoc_opt v b.refs with
      | Some r -> r
      | None -> (
        match Hashtbl.find_opt fresh_names v with
        | Some r -> r
        | None ->
          let r = Printf.sprintf "$%s.%s.%d" rule v fresh_seed in
          Hashtbl.replace fresh_names v r;
          r))
  in
  let resolve_name = function
    | PName n -> n
    | PNameVar v -> (
      match List.assoc_opt v b.names with
      | Some n -> n
      | None -> raise (Unbound v))
  in
  let resolve_cmp = function
    | PCmp c -> c
    | PCmpVar v -> (
      match List.assoc_opt v b.cmps with
      | Some c -> c
      | None -> raise (Unbound v))
  in
  let resolve_operand = function
    | POperand x -> x
    | POperandVar v -> (
      match List.assoc_opt v b.operands with
      | Some x -> x
      | None -> raise (Unbound v))
    | PORefOf pr -> Restricted.ORef (resolve_ref pr)
  in
  let resolve_args = function
    | PArgs ps -> List.map resolve_operand ps
    | PArgsVar v -> (
      match List.assoc_opt v b.arglists with
      | Some xs -> xs
      | None -> raise (Unbound v))
  in
  let resolve_recv = function
    | PRecvClass pn -> Restricted.RClass (resolve_name pn)
    | PRecvRef pr -> Restricted.RRef (resolve_ref pr)
  in
  let resolve_refs = function
    | PRefs ps -> List.map resolve_ref ps
    | PRefsVar v -> (
      match List.assoc_opt v b.reflists with
      | Some rs -> rs
      | None -> raise (Unbound v))
  in
  let rec go = function
    | PAny v -> (
      match List.assoc_opt v b.plans with
      | Some plan -> plan
      | None -> raise (Unbound v))
    | PAnyRanging (v, _, _) -> (
      match List.assoc_opt v b.plans with
      | Some plan -> plan
      | None -> raise (Unbound v))
    | PGet (pa, pc) -> Restricted.Get (resolve_ref pa, resolve_name pc)
    | PNaturalJoin (p1, p2) -> Restricted.NaturalJoin (go p1, go p2)
    | PUnion (p1, p2) -> Restricted.Union (go p1, go p2)
    | PDiff (p1, p2) -> Restricted.Diff (go p1, go p2)
    | PCross (p1, p2) -> Restricted.Cross (go p1, go p2)
    | PSelectCmp (pc, px, py, pi) ->
      Restricted.SelectCmp
        (resolve_cmp pc, resolve_operand px, resolve_operand py, go pi)
    | PJoinCmp (pc, pa1, pa2, p1, p2) ->
      Restricted.JoinCmp
        (resolve_cmp pc, resolve_ref pa1, resolve_ref pa2, go p1, go p2)
    | PMapProperty (pa, pp, pa1, pi) ->
      Restricted.MapProperty (resolve_ref pa, resolve_name pp, resolve_ref pa1, go pi)
    | PMapMethod (pa, pm, pr, pxs, pi) ->
      Restricted.MapMethod
        (resolve_ref pa, resolve_name pm, resolve_recv pr, resolve_args pxs, go pi)
    | PFlatProperty (pa, pp, pa1, pi) ->
      Restricted.FlatProperty
        (resolve_ref pa, resolve_name pp, resolve_ref pa1, go pi)
    | PFlatMethod (pa, pm, pr, pxs, pi) ->
      Restricted.FlatMethod
        (resolve_ref pa, resolve_name pm, resolve_recv pr, resolve_args pxs, go pi)
    | PMapOperator (pa, op, pxs, pi) ->
      Restricted.MapOperator (resolve_ref pa, op, resolve_args pxs, go pi)
    | PFlatOperator (pa, op, pxs, pi) ->
      Restricted.FlatOperator (resolve_ref pa, op, resolve_args pxs, go pi)
    | PProject (prs, pi) -> Restricted.Project (resolve_refs prs, go pi)
    | PMethodSource (pa, pc, pm, pxs) ->
      Restricted.MethodSource
        (resolve_ref pa, resolve_name pc, resolve_name pm, resolve_args pxs)
  in
  go template
