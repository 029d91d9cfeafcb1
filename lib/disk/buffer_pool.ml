open Soqm_vml

type frame = {
  data : bytes;
  mutable cls : string;
  mutable page : int;
  mutable pins : int;
  mutable dirty : bool;
  mutable refbit : bool;
  mutable valid : bool;
}

type t = {
  frames : frame array;
  table : (string * int, int) Hashtbl.t;  (* (cls, page) -> frame index *)
  mutable hand : int;
  m : Mutex.t;
  counters : Counters.t;
  read_page : cls:string -> page:int -> bytes -> unit;
  write_page : cls:string -> page:int -> bytes -> unit;
}

let create ~pages ~counters ~read_page ~write_page =
  let n = max 4 pages in
  {
    frames =
      Array.init n (fun _ ->
          {
            data = Bytes.create Page.size;
            cls = "";
            page = -1;
            pins = 0;
            dirty = false;
            refbit = false;
            valid = false;
          });
    table = Hashtbl.create (2 * n);
    hand = 0;
    m = Mutex.create ();
    counters;
    read_page;
    write_page;
  }

let capacity t = Array.length t.frames

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let write_back t f =
  if f.dirty then (
    t.write_page ~cls:f.cls ~page:f.page f.data;
    Counters.incr t.counters Pages_written;
    f.dirty <- false)

(* second-chance clock: invalid frames are free, pinned frames are
   skipped, a set reference bit buys one more revolution *)
let victim t =
  let n = Array.length t.frames in
  let rec go steps =
    if steps > 2 * n then
      failwith "Buffer_pool: every frame is pinned";
    let f = t.frames.(t.hand) in
    let here = t.hand in
    t.hand <- (t.hand + 1) mod n;
    if not f.valid then here
    else if f.pins > 0 then go (steps + 1)
    else if f.refbit then (
      f.refbit <- false;
      go (steps + 1))
    else here
  in
  go 0

let pin t ~cls ~page =
  locked t (fun () ->
      match Hashtbl.find_opt t.table (cls, page) with
      | Some i ->
        let f = t.frames.(i) in
        f.pins <- f.pins + 1;
        f.refbit <- true;
        Counters.incr t.counters Pool_hits;
        f.data
      | None ->
        let i = victim t in
        let f = t.frames.(i) in
        if f.valid then (
          write_back t f;
          Hashtbl.remove t.table (f.cls, f.page);
          Counters.incr t.counters Pool_evictions);
        f.cls <- cls;
        f.page <- page;
        f.pins <- 1;
        f.dirty <- false;
        f.refbit <- true;
        f.valid <- true;
        Hashtbl.replace t.table (cls, page) i;
        t.read_page ~cls ~page f.data;
        if Page.is_blank f.data then Page.format f.data;
        Counters.incr t.counters Pages_read;
        f.data)

let unpin t ~cls ~page ~dirty =
  locked t (fun () ->
      match Hashtbl.find_opt t.table (cls, page) with
      | None -> invalid_arg "Buffer_pool.unpin: page not resident"
      | Some i ->
        let f = t.frames.(i) in
        if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
        f.pins <- f.pins - 1;
        if dirty then f.dirty <- true)

(* Invalidate every frame of one class WITHOUT write-back: after a vacuum
   truncates the heap, cached images (dirty or not) describe pages that no
   longer exist and must never reach the file. *)
let drop_class t ~cls =
  locked t (fun () ->
      Array.iter
        (fun f ->
          if f.valid && String.equal f.cls cls then (
            if f.pins > 0 then
              invalid_arg "Buffer_pool.drop_class: page still pinned";
            Hashtbl.remove t.table (f.cls, f.page);
            f.valid <- false;
            f.dirty <- false;
            f.refbit <- false;
            f.page <- -1;
            f.cls <- ""))
        t.frames)

let flush t =
  locked t (fun () -> Array.iter (fun f -> if f.valid then write_back t f) t.frames)

let resident t =
  locked t (fun () ->
      Array.to_list t.frames
      |> List.filter_map (fun f -> if f.valid then Some (f.cls, f.page) else None))
