open Soqm_vml

(* Entries sorted by (value, oid).  Point updates splice a fresh array
   around a binary-searched position — O(n) copy per op, good enough for
   the incremental-maintenance workloads; bulk loads go through [build]. *)
type t = { cls : string; prop : string; mutable entries : (Value.t * Oid.t) array }

let create ~cls ~prop = { cls; prop; entries = [||] }
let cls t = t.cls
let prop t = t.prop

let compare_entry (v1, o1) (v2, o2) =
  let c = Value.compare v1 v2 in
  if c <> 0 then c else Oid.compare o1 o2

(* index of the first entry >= [entry] *)
let lower_bound t entry =
  let n = Array.length t.entries in
  let rec go l r =
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if compare_entry t.entries.(m) entry < 0 then go (m + 1) r else go l m
  in
  go 0 n

let insert t v oid =
  let entry = (v, oid) in
  let i = lower_bound t entry in
  let n = Array.length t.entries in
  if i >= n || compare_entry t.entries.(i) entry <> 0 then (
    let a = Array.make (n + 1) entry in
    Array.blit t.entries 0 a 0 i;
    Array.blit t.entries i a (i + 1) (n - i);
    t.entries <- a)

let delete t v oid =
  let entry = (v, oid) in
  let i = lower_bound t entry in
  let n = Array.length t.entries in
  if i < n && compare_entry t.entries.(i) entry = 0 then (
    let a = Array.make (n - 1) entry in
    Array.blit t.entries 0 a 0 i;
    Array.blit t.entries (i + 1) a i (n - i - 1);
    t.entries <- a)

(* A value change as one splice: [delete] then [insert] would copy the
   array twice, and every copy of a large index is a fresh major-heap
   block that stays in the peak footprint until the major GC sweeps it. *)
let replace t ~old_value ~new_value oid =
  let old_e = (old_value, oid) and new_e = (new_value, oid) in
  let n = Array.length t.entries in
  let i = lower_bound t old_e and j = lower_bound t new_e in
  let has k e = k < n && compare_entry t.entries.(k) e = 0 in
  if compare_entry old_e new_e = 0 then ()
  else if not (has i old_e) then insert t new_value oid
  else if has j new_e then delete t old_value oid
  else begin
    let src = t.entries and a = Array.make n new_e in
    if i < j then begin
      (* [new_e] lands at [j - 1] once [old_e] is gone *)
      Array.blit src 0 a 0 i;
      Array.blit src (i + 1) a i (j - 1 - i);
      Array.blit src j a j (n - j)
    end
    else begin
      Array.blit src 0 a 0 j;
      Array.blit src j a (j + 1) (i - j);
      Array.blit src (i + 1) a (i + 1) (n - i - 1)
    end;
    t.entries <- a
  end

type bound = Unbounded | Inclusive of Value.t | Exclusive of Value.t

let above lo v =
  match lo with
  | Unbounded -> true
  | Inclusive b -> Value.compare v b >= 0
  | Exclusive b -> Value.compare v b > 0

let below hi v =
  match hi with
  | Unbounded -> true
  | Inclusive b -> Value.compare v b <= 0
  | Exclusive b -> Value.compare v b < 0

(* binary search in [a], from index [from], for the first entry whose
   value satisfies [ok]; [ok] must be false then true along [a] *)
let first_where a from ok =
  let rec go l r =
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if ok (fst a.(m)) then go l m else go (m + 1) r
  in
  go from (Array.length a)

(* Each reads [t.entries] once: splices publish a fresh array and never
   mutate a published one, so a concurrent writer cannot tear a probe. *)
let probe_range t counters ~lo ~hi =
  Counters.incr counters Index_probes;
  let a = t.entries in
  let n = Array.length a in
  let rec collect i acc =
    if i >= n then List.rev acc
    else
      let v, oid = a.(i) in
      if below hi v then collect (i + 1) (oid :: acc) else List.rev acc
  in
  collect (first_where a 0 (above lo)) []

let count_range t ~lo ~hi =
  let a = t.entries in
  let start = first_where a 0 (above lo) in
  first_where a start (fun v -> not (below hi v)) - start

let probe_eq t counters v =
  probe_range t counters ~lo:(Inclusive v) ~hi:(Inclusive v)

let entries t = Array.length t.entries
let iter_entries t f = Array.iter (fun (v, oid) -> f v oid) t.entries

let load_sorted t arr =
  Array.iteri
    (fun i e ->
      if i > 0 && compare_entry arr.(i - 1) e >= 0 then
        invalid_arg "Sorted_index.load_sorted: entries not strictly ascending")
    arr;
  t.entries <- arr

let build t store =
  let items =
    List.filter_map
      (fun oid ->
        match Object_store.peek_prop store oid t.prop with
        | Value.Null -> None
        | v -> Some (v, oid))
      (Object_store.extent store t.cls)
  in
  let arr = Array.of_list items in
  Array.sort compare_entry arr;
  t.entries <- arr
