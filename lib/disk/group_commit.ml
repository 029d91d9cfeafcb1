(* Leader/follower group commit.

   Committers enqueue WAL batches in commit order and wait for
   durability.  The first waiter whose batch is not yet flushed becomes
   the leader: it drains the whole queue and hands it to [flush] — one
   write, one fsync, then page application — while followers sleep on
   the condition variable.  Batches that arrive while a leader is inside
   [flush] pile up and are flushed together by the next leader, so under
   concurrent committers the fsync count drops below the batch count.

   A [window] (see [set_window]) makes coalescing robust on fast devices
   (and on single-core hosts, where a committer is rarely preempted
   inside a cheap fsync): the leader sleeps [window] seconds before
   draining, so concurrent committers land in the same flush.  A new
   queue starts at [window = 0.], flushing immediately. *)

type ticket = int  (* 1-based enqueue index *)

type t = {
  m : Mutex.t;
  c : Condition.t;
  flush : Wal.op list list -> unit;
  mutable window : float;
  mutable queue : Wal.op list list;  (* pending batches, newest first *)
  mutable enqueued : int;  (* batches ever enqueued *)
  mutable flushed : int;  (* batches flushed so far *)
  mutable flushing : bool;  (* a leader is inside [flush] *)
  mutable failed : (int * int * exn) list;
      (* ticket ranges whose group flush raised: every waiter in the
         range must see the exception, not a silent success *)
}

let create ~flush () =
  {
    m = Mutex.create ();
    c = Condition.create ();
    flush;
    window = 0.;
    queue = [];
    enqueued = 0;
    flushed = 0;
    flushing = false;
    failed = [];
  }

let set_window t w = t.window <- max 0. w
let window t = t.window

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let enqueue t ops =
  locked t (fun () ->
      t.queue <- ops :: t.queue;
      t.enqueued <- t.enqueued + 1;
      t.enqueued)

(* Wait until the ticket's batch is durable, leading a flush whenever no
   other leader is active and our batch is still queued.  If the flush
   of the group containing [ticket] raised, re-raise that exception here
   — for the leader and every follower alike. *)
let wait t ticket =
  Mutex.lock t.m;
  while t.flushed < ticket do
    if t.flushing then Condition.wait t.c t.m
    else begin
      t.flushing <- true;
      (if t.window > 0. then begin
         (* gather concurrent committers before draining *)
         Mutex.unlock t.m;
         Unix.sleepf t.window;
         Mutex.lock t.m
       end);
      let batch = List.rev t.queue in
      t.queue <- [];
      let n = List.length batch in
      (* only the (sole) leader advances [flushed], so this range is
         stable across the unlocked flush *)
      let lo = t.flushed + 1 in
      Mutex.unlock t.m;
      let outcome =
        match if n > 0 then t.flush batch with
        | () -> None
        | exception e -> Some e
      in
      Mutex.lock t.m;
      (match outcome with
      | None -> ()
      | Some e -> t.failed <- (lo, lo + n - 1, e) :: t.failed);
      t.flushed <- t.flushed + n;
      t.flushing <- false;
      Condition.broadcast t.c
    end
  done;
  let err =
    List.find_opt (fun (lo, hi, _) -> lo <= ticket && ticket <= hi) t.failed
  in
  Mutex.unlock t.m;
  match err with Some (_, _, e) -> raise e | None -> ()

let submit t ops = wait t (enqueue t ops)

let pending t = locked t (fun () -> List.length t.queue)
