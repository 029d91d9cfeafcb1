(* Helpers shared by the bench executables: wall-clock timing, the
   median of a sample, draining and timing a compiled plan,
   command-line flag lookup and scratch database directories. *)

(* [f ()]'s result and the wall-clock seconds it took. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* The middle element of the sorted sample (the upper one for an even
   count). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Stream-count the rows of a compiled plan's block drain without
   retaining the blocks, so the timed side keeps no output alive. *)
let drain_compiled ctx compiled () =
  let b = Soqm_physical.Exec.open_compiled ctx compiled in
  let n = ref 0 in
  let rec go () =
    match b.Soqm_physical.Exec.next_block () with
    | Some rows ->
      n := !n + Array.length rows;
      go ()
    | None -> b.Soqm_physical.Exec.close_blocks ()
  in
  go ();
  !n

(* [f]'s row count and the median seconds of [reps] timed runs after a
   warm-up.  Each side starts from a settled heap: the hash-heavy
   entries are otherwise at the mercy of whatever major-GC debt the
   previous entry left behind, which moves their medians by 2x run to
   run. *)
let measure_median ~reps f =
  Gc.compact ();
  ignore (f ()) (* warm-up *);
  let rows = ref 0 in
  let times =
    List.init reps (fun _ ->
        let n, s = time f in
        rows := n;
        s)
  in
  (!rows, median times)

(* The value following [flag] on the command line, parsed; [default]
   when the flag is absent. *)
let arg_value flag default parse =
  let rec go = function
    | f :: v :: _ when String.equal f flag -> parse v
    | _ :: rest -> go rest
    | [] -> default
  in
  go (Array.to_list Sys.argv)

(* A scratch directory for a paged database, removed (one level deep —
   database directories hold no subdirectories) when [f] returns or
   raises. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix ".db" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun entry -> Sys.remove (Filename.concat dir entry))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)
