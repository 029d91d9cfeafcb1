open Soqm_vml
open Soqm_semantics

type config = {
  bound : int;
  models_per_size : int;
  seed : int;
  jobs : int;
  max_valuations : int;
}

let default_config =
  { bound = 3; models_per_size = 30; seed = 42; jobs = 1; max_valuations = 64 }

type witness = {
  model_index : int;
  model_size : int;
  store_text : string;
  detail : string;
}

type verdict =
  | Sound of { models : int }
  | Refuted of witness
  | Unsupported of string

(* ------------------------------------------------------------------ *)
(* expression walks                                                    *)
(* ------------------------------------------------------------------ *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Expr.Const _ | Expr.Self | Expr.Param _ | Expr.Ref _ | Expr.ClassObj _ ->
    acc
  | Expr.Prop (e1, _) -> fold_expr f acc e1
  | Expr.Call (r, _, args) ->
    List.fold_left (fold_expr f) (fold_expr f acc r) args
  | Expr.Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Expr.Not a -> fold_expr f acc a
  | Expr.TupleE fs -> List.fold_left (fun acc (_, x) -> fold_expr f acc x) acc fs
  | Expr.SetE xs -> List.fold_left (fold_expr f) acc xs
  | Expr.If (a, b, c) -> fold_expr f (fold_expr f (fold_expr f acc a) b) c

let sides_of = function
  | Equivalence.Expr_equiv { lhs; rhs; _ } | Equivalence.Cond_equiv { lhs; rhs; _ }
    ->
    [ lhs; rhs ]
  | Equivalence.Implication { antecedent; consequent; _ } ->
    [ antecedent; consequent ]
  | Equivalence.Query_method { cond; _ } -> [ cond ]

let params_of_spec spec =
  let of_expr acc e =
    fold_expr
      (fun acc -> function Expr.Param p -> p :: acc | _ -> acc)
      acc e
  in
  let base = List.fold_left of_expr [] (sides_of spec) in
  let all =
    match spec with
    | Equivalence.Query_method { args; _ } ->
      List.fold_left
        (fun acc -> function
          | Equivalence.Arg_param p -> p :: acc
          | Equivalence.Arg_const _ -> acc)
        base args
    | _ -> base
  in
  List.sort_uniq String.compare all

(* Small value domains mined from the rule constants: integer constants
   contribute an off-by-one neighborhood (c-1, c, c+1) so threshold
   boundaries are always exercised. *)
let mine_domains specs =
  let ints = ref [] and strs = ref [] and reals = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun e ->
          ignore
            (fold_expr
               (fun () -> function
                 | Expr.Const (Value.Int n) -> ints := (n - 1) :: n :: (n + 1) :: !ints
                 | Expr.Const (Value.Str s) -> strs := s :: !strs
                 | Expr.Const (Value.Real r) -> reals := r :: !reals
                 | _ -> ())
               () e))
        (sides_of spec))
    specs;
  let ints = List.sort_uniq Int.compare (0 :: 1 :: !ints) in
  let strs = List.sort_uniq String.compare ("alpha" :: "beta" :: "gamma" :: !strs) in
  let reals = List.sort_uniq Float.compare (0.0 :: 1.0 :: !reals) in
  (ints, strs, reals)

(* ------------------------------------------------------------------ *)
(* candidate stores                                                    *)
(* ------------------------------------------------------------------ *)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let eval_for store var oid ~params e =
  let env =
    Runtime.env ~params
      ~binding:(fun r ->
        if String.equal r var then Some (Value.Obj oid) else None)
      store
  in
  Runtime.eval env e

(* Derived implication sets are not base data: candidate stores derive
   them from the *trusted* knowledge base, exactly as the live system's
   maintenance does — so a declared maintained set holds by
   construction, while a candidate rule claiming a different membership
   condition is refutable. *)
let reconcile_derived store trusted =
  let schema = Object_store.schema store in
  List.iter
    (fun spec ->
      match Equivalence.maintained spec with
      | None -> ()
      | Some m ->
        let eval oid e = eval_for store m.Equivalence.m_var oid ~params:[] e in
        let desired = Hashtbl.create 16 in
        List.iter
          (fun oid ->
            let truthy_antecedent =
              try Value.truthy (eval oid m.Equivalence.m_antecedent)
              with Runtime.Error _ | Invalid_argument _ -> false
            in
            if truthy_antecedent then
              match
                try Some (eval oid m.Equivalence.target)
                with Runtime.Error _ | Invalid_argument _ -> None
              with
              | Some (Value.Obj t) ->
                let cur = Option.value ~default:[] (Hashtbl.find_opt desired t) in
                Hashtbl.replace desired t (Value.Obj oid :: cur)
              | _ -> ())
          (Object_store.extent store m.Equivalence.member_cls);
        List.iter
          (fun owner ->
            List.iter
              (fun t ->
                let members =
                  Option.value ~default:[] (Hashtbl.find_opt desired t)
                in
                Object_store.set_prop_derived store t m.Equivalence.set_prop
                  (Value.set members))
              (Object_store.extent store owner))
          (Equivalence.owner_classes schema m))
    trusted

let build_model ~schema ~install ~trusted ~ints ~strs ~reals ~k rng =
  let store = Object_store.create schema in
  install store;
  let objs = Hashtbl.create 8 in
  List.iter
    (fun (cd : Schema.class_def) ->
      Hashtbl.replace objs cd.Schema.cls_name
        (Array.init k (fun _ ->
             Object_store.create_object store ~cls:cd.Schema.cls_name [])))
    (Schema.classes schema);
  (* base properties: scalar object references always point somewhere
     (inverse links are maintained by the store), primitives draw from
     the mined domains; set-valued properties are left to inverse
     maintenance and the trusted-implication reconcile below *)
  List.iter
    (fun (cd : Schema.class_def) ->
      Array.iter
        (fun oid ->
          List.iter
            (fun (p : Schema.property) ->
              let set v = Object_store.set_prop store oid p.Schema.prop_name v in
              match p.Schema.prop_type with
              | Vtype.TObj c ->
                let targets = Hashtbl.find objs c in
                set (Value.Obj targets.(Random.State.int rng (Array.length targets)))
              | Vtype.TInt -> set (Value.Int (pick rng ints))
              | Vtype.TString ->
                let s =
                  if Random.State.int rng 3 = 0 then
                    pick rng strs ^ " " ^ pick rng strs
                  else pick rng strs
                in
                set (Value.Str s)
              | Vtype.TBool -> set (Value.Bool (Random.State.bool rng))
              | Vtype.TReal -> set (Value.Real (pick rng reals))
              | _ -> ())
            cd.Schema.properties)
        (Hashtbl.find objs cd.Schema.cls_name))
    (Schema.classes schema);
  reconcile_derived store trusted;
  store

let render_store store =
  let schema = Object_store.schema store in
  let buf = Buffer.create 256 in
  List.iter
    (fun (cd : Schema.class_def) ->
      List.iter
        (fun oid ->
          Buffer.add_string buf ("  " ^ Oid.to_string oid ^ " {");
          List.iteri
            (fun i (p : Schema.property) ->
              if i > 0 then Buffer.add_string buf ";";
              Buffer.add_string buf
                (Printf.sprintf " %s=%s" p.Schema.prop_name
                   (Value.to_string (Object_store.peek_prop store oid p.Schema.prop_name))))
            cd.Schema.properties;
          Buffer.add_string buf " }\n")
        (Object_store.extent store cd.Schema.cls_name))
    (Schema.classes schema);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parameter valuations                                                *)
(* ------------------------------------------------------------------ *)

(* Parameter types are inferred from their use ({!Saturate.infer} types
   the other side), since a spec does not carry the types its source
   declared: compared with (or passed where the signature expects) a
   typed expression, a parameter takes that type; [e IS-IN D] makes [D]
   a set of [e]'s type.  A property access [D.prop] names the class
   declaring the property — the object type, unless a comparison
   already made it a set. *)
let param_types schema spec =
  let cls, var =
    match spec with
    | Equivalence.Expr_equiv { cls; var; _ }
    | Equivalence.Cond_equiv { cls; var; _ }
    | Equivalence.Implication { cls; var; _ }
    | Equivalence.Query_method { cls; var; _ } ->
      (cls, var)
  in
  let ty = Saturate.infer schema ~cls ~var in
  let strong = Hashtbl.create 4 and weak = Hashtbl.create 4 in
  let note tbl p t = if not (Hashtbl.mem tbl p) then Hashtbl.replace tbl p t in
  let declaring prop =
    match
      List.filter
        (fun (cd : Schema.class_def) ->
          List.exists
            (fun (pd : Schema.property) -> String.equal pd.Schema.prop_name prop)
            cd.Schema.properties)
        (Schema.classes schema)
    with
    | [ cd ] -> Some (Vtype.TObj cd.Schema.cls_name)
    | _ -> None
  in
  let signature_args (msig : Schema.method_sig option) args =
    match msig with
    | Some s when List.length s.Schema.params = List.length args ->
      List.iter2
        (fun a (_, pty) -> match a with Expr.Param p -> note strong p pty | _ -> ())
        args s.Schema.params
    | _ -> ()
  in
  let visit () = function
    | Expr.Binop
        ( (Expr.Eq | Expr.Neq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.IsSubset),
          a,
          b ) -> (
      match a, b with
      | Expr.Param p, e | e, Expr.Param p -> Option.iter (note strong p) (ty e)
      | _ -> ())
    | Expr.Binop (Expr.IsIn, e, Expr.Param p) ->
      Option.iter (fun t -> note strong p (Vtype.TSet t)) (ty e)
    | Expr.Binop (Expr.IsIn, Expr.Param p, e) -> (
      match ty e with Some (Vtype.TSet t) -> note strong p t | _ -> ())
    | Expr.Prop (Expr.Param p, prop) -> Option.iter (note weak p) (declaring prop)
    | Expr.Call (Expr.ClassObj c, m, args) ->
      signature_args (Schema.own_method schema ~cls:c ~meth:m) args
    | Expr.Call (recv, m, args) -> (
      match ty recv with
      | Some (Vtype.TObj c) ->
        signature_args (Schema.inst_method schema ~cls:c ~meth:m) args
      | _ -> ())
    | _ -> ()
  in
  List.iter (fold_expr visit ()) (sides_of spec);
  (match spec with
  | Equivalence.Query_method { meth_cls; meth; args; _ } ->
    signature_args
      (Schema.own_method schema ~cls:meth_cls ~meth)
      (List.map
         (function
           | Equivalence.Arg_param p -> Expr.Param p
           | Equivalence.Arg_const v -> Expr.Const v)
         args)
  | _ -> ());
  List.map
    (fun p ->
      match Hashtbl.find_opt strong p with
      | Some t -> (p, Some t)
      | None -> (p, Hashtbl.find_opt weak p))
    (params_of_spec spec)

(* Per-model parameter domains.  A typed parameter draws from the values
   of its type: mined constants, the model's objects of a class, or
   small object sets of it (inverse-link equivalences quantify over
   object-set parameters).  An untyped one draws from all of them. *)
let param_domains store ~ints ~strs ~reals types =
  let schema = Object_store.schema store in
  let objects cls = List.map (fun o -> Value.Obj o) (Object_store.extent store cls) in
  let object_sets cls =
    match objects cls with
    | [] -> [ Value.Set [] ]
    | first :: _ as objs -> [ Value.set objs; Value.set [ first ]; Value.Set [] ]
  in
  let ints = List.map (fun n -> Value.Int n) ints
  and strs = List.map (fun s -> Value.Str s) strs
  and reals = List.map (fun r -> Value.Real r) reals in
  let untyped =
    lazy
      (ints @ strs @ reals
      @ List.concat_map
          (fun (cd : Schema.class_def) ->
            objects cd.Schema.cls_name @ object_sets cd.Schema.cls_name)
          (Schema.classes schema))
  in
  let known c = Option.is_some (Schema.find_class schema c) in
  List.map
    (fun (p, t) ->
      ( p,
        match t with
        | Some Vtype.TInt -> ints
        | Some Vtype.TString -> strs
        | Some Vtype.TReal -> reals
        | Some Vtype.TBool -> [ Value.Bool true; Value.Bool false ]
        | Some (Vtype.TObj c) when known c -> objects c
        | Some (Vtype.TSet (Vtype.TObj c)) when known c -> object_sets c
        | _ -> Lazy.force untyped ))
    types

let valuations rng domains max_v =
  let total =
    List.fold_left
      (fun acc (_, d) -> if acc > max_v then acc else acc * List.length d)
      1 domains
  in
  if total <= max_v then
    (* full cartesian product *)
    List.fold_left
      (fun acc (p, domain) ->
        List.concat_map (fun tail -> List.map (fun v -> (p, v) :: tail) domain) acc)
      [ [] ] domains
  else
    List.init max_v (fun _ -> List.map (fun (p, d) -> (p, pick rng d)) domains)

(* ------------------------------------------------------------------ *)
(* one rule on one model                                               *)
(* ------------------------------------------------------------------ *)

let pp_binding var oid params =
  String.concat ", "
    ((Printf.sprintf "%s := %s" var (Oid.to_string oid))
    :: List.map
         (fun (p, v) -> Printf.sprintf "%s := %s" p (Value.to_string v))
         params)

(* [Some detail] when the model refutes the rule; counts successful
   side evaluations into [evaluated] so a rule no model can evaluate is
   reported as unsupported rather than vacuously sound. *)
let check_on_model ~evaluated store spec vals =
  let exception Found of string in
  try
    (match spec with
    | Equivalence.Expr_equiv { cls; var; lhs; rhs; _ } ->
      List.iter
        (fun oid ->
          List.iter
            (fun params ->
              match
                ( (try Some (eval_for store var oid ~params lhs)
                   with Runtime.Error _ | Invalid_argument _ -> None),
                  try Some (eval_for store var oid ~params rhs)
                  with Runtime.Error _ | Invalid_argument _ -> None )
              with
              | Some lv, Some rv ->
                Atomic.incr evaluated;
                if not (Value.equal lv rv) then
                  raise
                    (Found
                       (Printf.sprintf "%s: lhs = %s, rhs = %s"
                          (pp_binding var oid params) (Value.to_string lv)
                          (Value.to_string rv)))
              | _ -> ())
            vals)
        (Object_store.extent store cls)
    | Equivalence.Cond_equiv { cls; var; lhs; rhs; _ } ->
      List.iter
        (fun oid ->
          List.iter
            (fun params ->
              match
                ( (try Some (eval_for store var oid ~params lhs)
                   with Runtime.Error _ | Invalid_argument _ -> None),
                  try Some (eval_for store var oid ~params rhs)
                  with Runtime.Error _ | Invalid_argument _ -> None )
              with
              | Some lv, Some rv ->
                Atomic.incr evaluated;
                if Value.truthy lv <> Value.truthy rv then
                  raise
                    (Found
                       (Printf.sprintf "%s: lhs %s, rhs %s"
                          (pp_binding var oid params)
                          (if Value.truthy lv then "holds" else "fails")
                          (if Value.truthy rv then "holds" else "fails")))
              | _ -> ())
            vals)
        (Object_store.extent store cls)
    | Equivalence.Implication { cls; var; antecedent; consequent; _ } ->
      List.iter
        (fun oid ->
          List.iter
            (fun params ->
              match
                ( (try Some (eval_for store var oid ~params antecedent)
                   with Runtime.Error _ | Invalid_argument _ -> None),
                  try Some (eval_for store var oid ~params consequent)
                  with Runtime.Error _ | Invalid_argument _ -> None )
              with
              | Some av, Some cv ->
                Atomic.incr evaluated;
                if Value.truthy av && not (Value.truthy cv) then
                  raise
                    (Found
                       (Printf.sprintf
                          "%s: antecedent holds but consequent fails"
                          (pp_binding var oid params)))
              | _ -> ())
            vals)
        (Object_store.extent store cls)
    | Equivalence.Query_method { cls; var; cond; meth_cls; meth; args; _ } ->
      List.iter
        (fun params ->
          let arg_values =
            List.map
              (function
                | Equivalence.Arg_const v -> Some v
                | Equivalence.Arg_param p -> List.assoc_opt p params)
              args
          in
          if List.for_all Option.is_some arg_values then begin
            let arg_values = List.map Option.get arg_values in
            let selected =
              List.filter
                (fun oid ->
                  try Value.truthy (eval_for store var oid ~params cond)
                  with Runtime.Error _ | Invalid_argument _ -> false)
                (Object_store.extent store cls)
            in
            match
              try
                Some (Runtime.invoke store (Value.Cls meth_cls) meth arg_values)
              with Runtime.Error _ | Invalid_argument _ -> None
            with
            | Some rv ->
              Atomic.incr evaluated;
              let lv = Value.set (List.map (fun o -> Value.Obj o) selected) in
              if not (Value.equal lv rv) then
                raise
                  (Found
                     (Printf.sprintf
                        "%s: selection yields %s but %s->%s yields %s"
                        (String.concat ", "
                           (List.map
                              (fun (p, v) ->
                                Printf.sprintf "%s := %s" p (Value.to_string v))
                              params))
                        (Value.to_string lv) meth_cls meth (Value.to_string rv)))
            | None -> ()
          end)
        vals);
    None
  with Found detail -> Some detail

(* ------------------------------------------------------------------ *)
(* the search                                                          *)
(* ------------------------------------------------------------------ *)

let check_spec ?(config = default_config) ?(install = fun _ -> ()) ?counters
    ~trusted schema spec =
  let ints, strs, reals = mine_domains (spec :: trusted) in
  let types = param_types schema spec in
  let evaluated = Atomic.make 0 in
  let models_run = ref 0 in
  let verdict = ref None in
  let witness_m = Mutex.create () in
  let best = Atomic.make max_int in
  let best_witness = ref None in
  let jobs = max 1 config.jobs in
  let k = ref 1 in
  while !verdict = None && !k <= config.bound do
    let size = !k in
    let cursor = Atomic.make 0 in
    let worker _w =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < config.models_per_size then begin
          (* indices above an already found counterexample need no work,
             but smaller ones still run — the reported witness is the
             smallest model regardless of worker interleaving *)
          if i < Atomic.get best then begin
            let index = ((size - 1) * config.models_per_size) + i in
            let rng = Random.State.make [| config.seed; index; 0x5eed |] in
            let store =
              build_model ~schema ~install ~trusted ~ints ~strs ~reals ~k:size
                rng
            in
            let domains = param_domains store ~ints ~strs ~reals types in
            let vals = valuations rng domains config.max_valuations in
            (match check_on_model ~evaluated store spec vals with
            | Some detail ->
              Mutex.lock witness_m;
              if index < Atomic.get best then begin
                Atomic.set best index;
                best_witness :=
                  Some
                    {
                      model_index = index;
                      model_size = size;
                      store_text = render_store store;
                      detail;
                    }
              end;
              Mutex.unlock witness_m
            | None -> ())
          end;
          loop ()
        end
      in
      loop ()
    in
    Soqm_physical.Pool.run (Soqm_physical.Pool.global ()) ~jobs worker;
    models_run := !models_run + config.models_per_size;
    (match counters with
    | Some c -> Counters.add c Models_checked config.models_per_size
    | None -> ());
    (match !best_witness with
    | Some w ->
      verdict := Some (Refuted w);
      (match counters with
      | Some c -> Counters.incr c Counterexamples_found
      | None -> ())
    | None -> ());
    incr k
  done;
  match !verdict with
  | Some v -> v
  | None ->
    if Atomic.get evaluated = 0 then
      Unsupported
        "no generated model could evaluate the rule (missing method \
         implementations or parameter domain)"
    else Sound { models = !models_run }

let check_specs ?config ?install ?counters ~trusted schema specs =
  List.map
    (fun spec ->
      (spec, check_spec ?config ?install ?counters ~trusted schema spec))
    specs

let pp_verdict ppf = function
  | Sound { models } -> Format.fprintf ppf "sound (%d bounded models)" models
  | Unsupported msg -> Format.fprintf ppf "unsupported: %s" msg
  | Refuted w ->
    Format.fprintf ppf
      "REFUTED by model %d (%d object(s) per class)@,witness store:@,%s  at %s"
      w.model_index w.model_size w.store_text w.detail
