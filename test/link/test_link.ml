(* Link check: the production code must not depend on the [soqm_oracle]
   library (the reference evaluators only tests, benches and examples
   link).  Two scans:
   - the dune files of bin/ and lib/ must not name the library;
   - [soqm_cli.exe] must not contain its code.  OCaml native code names
     every compilation unit's symbols [caml<Library>__<Module>], so the
     oracle shows up as [camlSoqm_oracle] exactly when one of its modules
     was linked.  The physical executor's symbols must be present, or
     the scan read a stripped (or wrong) file and proves nothing.

   Usage: test_link.exe PATH-TO-soqm_cli.exe DUNE-FILE... *)

let contains haystack needle =
  match Str.search_forward (Str.regexp_string needle) haystack 0 with
  | _ -> true
  | exception Not_found -> false

let read path = In_channel.with_open_bin path In_channel.input_all

let () =
  match Array.to_list Sys.argv with
  | _ :: binary :: dune_files ->
    let exe = read binary in
    let checks =
      ("production executor linked", contains exe "camlSoqm_physical__Exec")
      :: ("oracle code not linked", not (contains exe "camlSoqm_oracle"))
      :: List.map
           (fun f ->
             (f ^ " does not name soqm_oracle", not (contains (read f) "soqm_oracle")))
           dune_files
    in
    List.iter
      (fun (what, ok) -> Printf.printf "%s %s\n" (if ok then "ok" else "FAIL") what)
      checks;
    if List.exists (fun (_, ok) -> not ok) checks then exit 1
  | _ ->
    prerr_endline "usage: test_link.exe SOQM_CLI_EXE DUNE_FILE...";
    exit 2
