open Soqm_vml

type tuple = (string * Value.t) list

type t = { refs : string list; tuples : tuple list }

module Tuple = struct
  type t = tuple

  let make fields =
    List.sort (fun (a, _) (b, _) -> String.compare a b) fields

  let rec compare (a : t) (b : t) =
    match a, b with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | (ra, va) :: a', (rb, vb) :: b' ->
      let c = String.compare ra rb in
      if c <> 0 then c
      else
        let c = Value.compare va vb in
        if c <> 0 then c else compare a' b'

  let equal a b = compare a b = 0

  (* Tuples are canonical (components sorted, values canonically
     constructed), so structural equality coincides with [equal] and the
     generic hash is consistent with it.  The deep parameters avoid
     degenerate bucketing on tuples whose first components agree. *)
  let hash (t : t) = Hashtbl.hash_param 64 256 t

  let names (t : t) = List.map fst t

  (* Sorted-order lookup: stops as soon as the walk passes where the
     name would sit, so absent names cost O(position), not O(width). *)
  let find_opt r (t : t) =
    let rec go = function
      | [] -> None
      | (r', v) :: rest ->
        let c = String.compare r r' in
        if c = 0 then Some v else if c < 0 then None else go rest
    in
    go t

  (* Project onto a sorted reference list in one merge-style pass (both
     the tuple and [rs] are sorted by name). *)
  let project rs (t : t) =
    let rec go rs t =
      match rs, t with
      | [], _ | _, [] -> []
      | r :: rs', ((r', _) as f) :: t' ->
        let c = String.compare r r' in
        if c = 0 then f :: go rs' t'
        else if c < 0 then go rs' t
        else go rs t'
    in
    go rs t

  (* Insert one field into an already-sorted tuple: O(|t|) instead of a
     full re-sort. *)
  let insert ((r, _) as field) (t : t) =
    let rec go = function
      | [] -> [ field ]
      | ((r', _) as f') :: rest as l ->
        if String.compare r r' <= 0 then field :: l else f' :: go rest
    in
    go t

  (* Merge two sorted tuples; on a shared name the left component wins
     (callers only merge tuples that agree on shared names). *)
  let merge_sorted (a : t) (b : t) =
    let rec go a b =
      match a, b with
      | [], b -> b
      | a, [] -> a
      | ((ra, _) as fa) :: a', ((rb, _) as fb) :: b' ->
        let c = String.compare ra rb in
        if c < 0 then fa :: go a' b
        else if c > 0 then fb :: go a b'
        else fa :: go a' b'
    in
    go a b
end

let tuple_make = Tuple.make
let compare_tuple = Tuple.compare

(* ------------------------------------------------------------------ *)
(* Layouts: compiled name -> slot resolution                           *)
(* ------------------------------------------------------------------ *)

module Layout = struct
  type t = string array

  let of_refs refs = Array.of_list (List.sort_uniq String.compare refs)
  let width (l : t) = Array.length l
  let names (l : t) = Array.to_list l
  let equal (a : t) (b : t) = a = b

  let slot (l : t) r =
    (* binary search over the sorted attribute names *)
    let rec go lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        let c = String.compare r l.(mid) in
        if c = 0 then Some mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length l)

  let slot_exn l r =
    match slot l r with
    | Some i -> i
    | None ->
      invalid_arg (Printf.sprintf "Relation.Layout.slot_exn: no slot for %S" r)

  let union (a : t) (b : t) = of_refs (Array.to_list a @ Array.to_list b)

  let row_of_tuple (l : t) (tup : tuple) : Value.t array =
    let w = Array.length l in
    let row = Array.make w Value.Null in
    let rec go i = function
      | [] -> if i = w then row else invalid_arg "Layout.row_of_tuple: width"
      | (r, v) :: rest ->
        if i >= w || not (String.equal r l.(i)) then
          invalid_arg
            (Printf.sprintf "Relation.Layout.row_of_tuple: unexpected %S" r)
        else (
          row.(i) <- v;
          go (i + 1) rest)
    in
    go 0 tup

  let tuple_of_row (l : t) (row : Value.t array) : tuple =
    let rec go i = if i = Array.length l then [] else (l.(i), row.(i)) :: go (i + 1) in
    go 0

  (* Projection plan: the output layout for [rs] plus, per output slot,
     the source slot it copies from.
     @raise Invalid_argument when an [rs] name is absent from [src]. *)
  let projection ~(src : t) rs : t * int array =
    let out = of_refs rs in
    (out, Array.map (slot_exn src) out)

  (* Merge plan for joins: the united layout plus, per output slot, a
     signed source index — [i >= 0] copies [left.(i)], [i < 0] copies
     [right.(-i - 1)].  Shared names copy from the left, matching
     [Tuple.merge_sorted]. *)
  let merge_plan ~(left : t) ~(right : t) : t * int array =
    let out = union left right in
    ( out,
      Array.map
        (fun n ->
          match slot left n with
          | Some i -> i
          | None -> -slot_exn right n - 1)
        out )

  (* Layout with one attribute added, plus the slot it lands in.
     @raise Invalid_argument when [r] is already present. *)
  let insertion (l : t) r : t * int =
    (match slot l r with
    | Some _ ->
      invalid_arg
        (Printf.sprintf "Relation.Layout.insertion: %S already present" r)
    | None -> ());
    let out = of_refs (r :: Array.to_list l) in
    (out, slot_exn out r)
end

(* Rows: tuples stripped of their names, positions fixed by a layout.
   Hash/equality mirror [Tuple]: canonical values make the generic hash
   consistent with [Value.equal]-based equality. *)
module Row = struct
  type t = Value.t array

  let equal (a : t) (b : t) =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash (r : t) = Hashtbl.hash_param 64 256 r
end

module RowTbl = Hashtbl.Make (Row)

(* One O(|refs|) pass: true iff the tuple's component names are exactly
   [refs], in order.  Canonical tuples hit this without re-sorting. *)
let rec names_match refs (tup : tuple) =
  match refs, tup with
  | [], [] -> true
  | r :: refs', (n, _) :: tup' -> String.equal r n && names_match refs' tup'
  | _ -> false

let make ~refs tuples =
  let refs = List.sort_uniq String.compare refs in
  let canon tup =
    if names_match refs tup then tup
    else
      let sorted = Tuple.make tup in
      if names_match refs sorted then sorted
      else
        invalid_arg
          (Format.asprintf "Relation.make: tuple refs {%s} differ from {%s}"
             (String.concat ", " (Tuple.names sorted))
             (String.concat ", " refs))
  in
  let tuples = List.map canon tuples in
  { refs; tuples = List.sort_uniq Tuple.compare tuples }

let empty ~refs = make ~refs []
let refs t = t.refs
let tuples t = t.tuples
let cardinality t = List.length t.tuples
let field tup r = List.assoc r tup
let same_refs a b = a.refs = b.refs

let equal a b =
  same_refs a b
  && List.length a.tuples = List.length b.tuples
  && List.for_all2 (fun x y -> compare_tuple x y = 0) a.tuples b.tuples

let of_values a vs =
  make ~refs:[ a ] (List.map (fun v -> [ (a, v) ]) (List.sort_uniq Value.compare vs))

let column t r = List.map (fun tup -> field tup r) t.tuples

let pp ppf t =
  Format.fprintf ppf "@[<v>{%s} (%d tuples)@," (String.concat ", " t.refs)
    (cardinality t);
  List.iter
    (fun tup ->
      Format.fprintf ppf "  [%a]@,"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf (r, v) -> Format.fprintf ppf "%s: %a" r Value.pp v))
        tup)
    t.tuples;
  Format.fprintf ppf "@]"
