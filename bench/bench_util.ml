(* Helpers shared by the bench executables: wall-clock timing, the
   median of a sample, command-line flag lookup and scratch database
   directories. *)

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
