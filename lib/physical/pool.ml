(* Worker-domain pool: lazily spawned helpers parked on a condition
   variable, a generation-free claim protocol (worker indices for the
   current task are handed out under the pool mutex), and a joining
   caller that doubles as worker 0. *)

let total_spawned_counter = Atomic.make 0
let total_spawned () = Atomic.get total_spawned_counter

(* Helper domains a pool ever spawns: just under the runtime's domain
   limit. *)
let max_helpers = 126

type t = {
  m : Mutex.t;
  work : Condition.t;  (* helpers wait here between tasks *)
  finished : Condition.t;  (* the caller waits here for the join *)
  mutable task : (int -> unit) option;
  mutable next_index : int;  (* next worker index to hand out *)
  mutable hi : int;  (* helper indices for this task are [1 .. hi] *)
  mutable unfinished : int;  (* indices not yet completed *)
  mutable failure : exn option;  (* first worker exception of this task *)
  mutable domains : unit Domain.t list;
  mutable spawned : int;
  mutable stop : bool;
  mutable busy : bool;  (* a task is in flight (re-entrancy guard) *)
}

let create () =
  {
    m = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    task = None;
    next_index = 0;
    hi = 0;
    unfinished = 0;
    failure = None;
    domains = [];
    spawned = 0;
    stop = false;
    busy = false;
  }

let helpers t =
  Mutex.lock t.m;
  let n = t.spawned in
  Mutex.unlock t.m;
  n

(* Helper body: claim an index of the current task, run it, account its
   completion, repeat; park when no claimable index exists.  A helper
   that finishes early may legally claim a second index of the same
   task — with morsel-cursor tasks the extra claim just finds the
   cursor exhausted. *)
let helper_loop t =
  Mutex.lock t.m;
  let rec next () =
    if t.stop then Mutex.unlock t.m
    else
      match t.task with
      | Some f when t.next_index <= t.hi ->
        let i = t.next_index in
        t.next_index <- i + 1;
        Mutex.unlock t.m;
        (try f i
         with e ->
           Mutex.lock t.m;
           if t.failure = None then t.failure <- Some e;
           Mutex.unlock t.m);
        Mutex.lock t.m;
        t.unfinished <- t.unfinished - 1;
        if t.unfinished = 0 then Condition.broadcast t.finished;
        next ()
      | _ ->
        Condition.wait t.work t.m;
        next ()
  in
  next ()

let spawn_up_to t wanted =
  (* called with [t.m] held *)
  while t.spawned < wanted && t.spawned < max_helpers do
    t.spawned <- t.spawned + 1;
    Atomic.incr total_spawned_counter;
    t.domains <- Domain.spawn (fun () -> helper_loop t) :: t.domains
  done

let run t ~jobs f =
  if jobs <= 1 then f 0
  else begin
    Mutex.lock t.m;
    if t.busy || t.stop then begin
      (* re-entrant (or shutting-down) use: the pool is not a scheduler,
         degrade to inline sequential execution of every index *)
      Mutex.unlock t.m;
      for i = 0 to jobs - 1 do
        f i
      done
    end
    else begin
      t.busy <- true;
      spawn_up_to t (jobs - 1);
      let k = min (jobs - 1) t.spawned in
      t.task <- Some f;
      t.next_index <- 1;
      t.hi <- k;
      t.unfinished <- k;
      t.failure <- None;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      (* the caller is worker 0 *)
      let caller_failure = (try f 0; None with e -> Some e) in
      Mutex.lock t.m;
      while t.unfinished > 0 do
        Condition.wait t.finished t.m
      done;
      t.task <- None;
      let failure =
        match caller_failure with Some _ -> caller_failure | None -> t.failure
      in
      t.failure <- None;
      t.busy <- false;
      Mutex.unlock t.m;
      match failure with Some e -> raise e | None -> ()
    end
  end

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  let ds = t.domains in
  t.domains <- [];
  t.spawned <- 0;
  Mutex.unlock t.m;
  List.iter Domain.join ds;
  Mutex.lock t.m;
  t.stop <- false;
  Mutex.unlock t.m

(* The process-wide pool.  Creation is racy-safe in practice (executors
   ask for it from the main domain), but guard with a mutex anyway. *)
let global_pool = ref None
let global_m = Mutex.create ()

let global () =
  Mutex.lock global_m;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
      let p = create () in
      global_pool := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock global_m;
  p
