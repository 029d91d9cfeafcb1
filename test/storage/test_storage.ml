(* Tests for the access-path substrates: tokenizer, inverted text index,
   hash index, statistics. *)

open Soqm_vml
open Soqm_ir
open Soqm_storage
module F = Soqm_testlib.Fixtures

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_words () =
  check (Alcotest.list Alcotest.string) "basic split"
    [ "the"; "query"; "optimizer" ]
    (Tokenizer.words "The  query, optimizer!");
  check (Alcotest.list Alcotest.string) "digits kept" [ "a1"; "2b" ]
    (Tokenizer.words "a1 2b");
  check (Alcotest.list Alcotest.string) "empty" [] (Tokenizer.words " .,;! ")

let test_vocabulary () =
  check (Alcotest.list Alcotest.string) "sorted, unique"
    [ "a"; "b" ]
    (Tokenizer.vocabulary "b a B A b")

let test_contains_word () =
  check Alcotest.bool "case-insensitive whole word" true
    (Tokenizer.contains_word "The Implementation section" "implementation");
  check Alcotest.bool "no substring match" false
    (Tokenizer.contains_word "reimplementation" "implementation");
  check Alcotest.bool "absent" false (Tokenizer.contains_word "abc" "x")

let prop_tokenizer_agrees_with_index =
  QCheck2.Test.make ~count:200
    ~name:"contains_word agrees with vocabulary membership"
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 0 30)) (string_size ~gen:(char_range 'a' 'e') (int_range 1 3)))
    (fun (text, w) ->
      Tokenizer.contains_word text w
      = List.mem (String.lowercase_ascii w) (Tokenizer.vocabulary text))

(* ------------------------------------------------------------------ *)
(* Inverted index                                                      *)
(* ------------------------------------------------------------------ *)

let test_inverted_basic () =
  let idx = Inverted_index.create () in
  Inverted_index.add idx ~key:1 ~text:"alpha beta gamma";
  Inverted_index.add idx ~key:2 ~text:"beta delta";
  check (Alcotest.list Alcotest.int) "single word"
    [ 1; 2 ]
    (List.sort compare (Inverted_index.lookup idx "beta"));
  check (Alcotest.list Alcotest.int) "case insensitive"
    [ 1 ]
    (Inverted_index.lookup idx "ALPHA");
  check (Alcotest.list Alcotest.int) "unknown word" [] (Inverted_index.lookup idx "nope");
  check Alcotest.int "posting count" 2 (Inverted_index.posting_count idx "beta")

let test_inverted_conjunctive () =
  let idx = Inverted_index.create () in
  Inverted_index.add idx ~key:1 ~text:"alpha beta";
  Inverted_index.add idx ~key:2 ~text:"alpha gamma";
  check (Alcotest.list Alcotest.int) "conjunction"
    [ 1 ]
    (Inverted_index.lookup_all idx "beta alpha");
  check (Alcotest.list Alcotest.int) "empty query" [] (Inverted_index.lookup_all idx " ")

let test_inverted_remove_clear () =
  let idx = Inverted_index.create () in
  Inverted_index.add idx ~key:1 ~text:"alpha beta";
  Inverted_index.remove idx ~key:1 ~text:"alpha beta";
  check (Alcotest.list Alcotest.int) "removed" [] (Inverted_index.lookup idx "alpha");
  check Alcotest.int "words dropped" 0 (Inverted_index.word_count idx);
  Inverted_index.add idx ~key:2 ~text:"x y";
  Inverted_index.clear idx;
  check Alcotest.int "cleared" 0 (Inverted_index.word_count idx)

let prop_inverted_index_complete =
  QCheck2.Test.make ~count:100
    ~name:"inverted index finds exactly the matching documents"
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (string_size ~gen:(char_range 'a' 'd') (int_range 1 6)))
    (fun texts ->
      let idx = Inverted_index.create () in
      List.iteri (fun i text -> Inverted_index.add idx ~key:i ~text) texts;
      List.for_all
        (fun w ->
          let via_index = List.sort compare (Inverted_index.lookup idx w) in
          let via_scan =
            List.mapi (fun i text -> (i, text)) texts
            |> List.filter (fun (_, text) -> Tokenizer.contains_word text w)
            |> List.map fst
          in
          via_index = via_scan)
        [ "a"; "ab"; "abc"; "d" ])

(* ------------------------------------------------------------------ *)
(* Hash index                                                          *)
(* ------------------------------------------------------------------ *)

let oid i = Oid.make ~cls:"C" ~id:i

let test_hash_index_basic () =
  let idx = Hash_index.create ~cls:"C" ~prop:"p" in
  let counters = Counters.create () in
  Hash_index.insert idx (Value.Str "x") (oid 1);
  Hash_index.insert idx (Value.Str "x") (oid 2);
  Hash_index.insert idx (Value.Str "y") (oid 3);
  check Alcotest.int "probe x" 2
    (List.length (Hash_index.probe idx counters (Value.Str "x")));
  check Alcotest.int "probe missing" 0
    (List.length (Hash_index.probe idx counters (Value.Str "z")));
  check Alcotest.int "distinct keys" 2 (Hash_index.distinct_keys idx);
  check Alcotest.int "entries" 3 (Hash_index.entries idx);
  check Alcotest.int "probes charged" 2 (Counters.get counters Index_probes)

let test_hash_index_delete () =
  let idx = Hash_index.create ~cls:"C" ~prop:"p" in
  let counters = Counters.create () in
  Hash_index.insert idx (Value.Str "x") (oid 1);
  Hash_index.delete idx (Value.Str "x") (oid 1);
  check Alcotest.int "deleted" 0
    (List.length (Hash_index.probe idx counters (Value.Str "x")));
  check Alcotest.int "bucket dropped" 0 (Hash_index.distinct_keys idx)

let test_hash_index_build_from_store () =
  let db = F.tiny_db () in
  let idx = Hash_index.create ~cls:"Document" ~prop:"author" in
  Hash_index.build idx db.Soqm_core.Db.store;
  check Alcotest.int "all documents indexed"
    (Object_store.extent_size db.Soqm_core.Db.store "Document")
    (Hash_index.entries idx);
  (* rebuilding is idempotent *)
  Hash_index.build idx db.Soqm_core.Db.store;
  check Alcotest.int "idempotent"
    (Object_store.extent_size db.Soqm_core.Db.store "Document")
    (Hash_index.entries idx)

let prop_hash_index_agrees_with_scan =
  QCheck2.Test.make ~count:100 ~name:"index probe = extent filter"
    QCheck2.Gen.(list_size (int_range 0 30) (int_range 0 5))
    (fun values ->
      let idx = Hash_index.create ~cls:"C" ~prop:"p" in
      let counters = Counters.create () in
      List.iteri (fun i v -> Hash_index.insert idx (Value.Int v) (oid i)) values;
      List.for_all
        (fun probe ->
          let via_index =
            List.length (Hash_index.probe idx counters (Value.Int probe))
          in
          let via_scan = List.length (List.filter (( = ) probe) values) in
          via_index = via_scan)
        [ 0; 1; 2; 3; 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* Sorted index                                                        *)
(* ------------------------------------------------------------------ *)

let test_sorted_index_ranges () =
  let idx = Sorted_index.create ~cls:"C" ~prop:"p" in
  let counters = Counters.create () in
  List.iteri (fun i v -> Sorted_index.insert idx (Value.Int v) (oid i)) [ 5; 1; 9; 3; 7 ];
  let probe ~lo ~hi = List.length (Sorted_index.probe_range idx counters ~lo ~hi) in
  check Alcotest.int "unbounded" 5
    (probe ~lo:Sorted_index.Unbounded ~hi:Sorted_index.Unbounded);
  check Alcotest.int "upper exclusive" 2
    (probe ~lo:Sorted_index.Unbounded ~hi:(Sorted_index.Exclusive (Value.Int 5)));
  check Alcotest.int "upper inclusive" 3
    (probe ~lo:Sorted_index.Unbounded ~hi:(Sorted_index.Inclusive (Value.Int 5)));
  check Alcotest.int "lower exclusive" 2
    (probe ~lo:(Sorted_index.Exclusive (Value.Int 5)) ~hi:Sorted_index.Unbounded);
  check Alcotest.int "window" 3
    (probe
       ~lo:(Sorted_index.Inclusive (Value.Int 3))
       ~hi:(Sorted_index.Inclusive (Value.Int 7)));
  check Alcotest.int "empty window" 0
    (probe
       ~lo:(Sorted_index.Exclusive (Value.Int 9))
       ~hi:Sorted_index.Unbounded);
  check Alcotest.int "point probe" 1
    (List.length (Sorted_index.probe_eq idx counters (Value.Int 7)))

let test_sorted_index_maintenance () =
  let idx = Sorted_index.create ~cls:"C" ~prop:"p" in
  let counters = Counters.create () in
  Sorted_index.insert idx (Value.Int 1) (oid 1);
  Sorted_index.insert idx (Value.Int 1) (oid 1);
  check Alcotest.int "no duplicate entries" 1 (Sorted_index.entries idx);
  Sorted_index.delete idx (Value.Int 1) (oid 1);
  check Alcotest.int "deleted" 0
    (List.length (Sorted_index.probe_eq idx counters (Value.Int 1)))

let test_sorted_index_build () =
  let db = F.tiny_db () in
  let counters = Counters.create () in
  let idx = db.Soqm_core.Db.word_count_index in
  let store = db.Soqm_core.Db.store in
  let via_index =
    Sorted_index.probe_range idx counters
      ~lo:(Sorted_index.Exclusive (Value.Int 500))
      ~hi:Sorted_index.Unbounded
    |> List.sort Oid.compare
  in
  let via_scan =
    List.filter
      (fun p ->
        match Object_store.peek_prop store p "word_count" with
        | Value.Int n -> n > 500
        | _ -> false)
      (Object_store.extent store "Paragraph")
    |> List.sort Oid.compare
  in
  check Alcotest.bool "index agrees with scan" true (via_index = via_scan);
  check Alcotest.bool "nonempty" true (via_index <> [])

(* after inserts and value changes ([replace]), probes and the cost
   model's range counts agree with filtering the current values *)
let prop_sorted_index_agrees =
  QCheck2.Test.make ~count:100 ~name:"range probe = filtered scan"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 25) (int_range 0 20))
        (list_size (int_range 0 10) (pair (int_range 0 24) (int_range 0 20)))
        (int_range 0 20))
    (fun (values, moves, threshold) ->
      let idx = Sorted_index.create ~cls:"C" ~prop:"p" in
      let counters = Counters.create () in
      List.iteri (fun i v -> Sorted_index.insert idx (Value.Int v) (oid i)) values;
      let values = Array.of_list values in
      List.iter
        (fun (i, v) ->
          if i < Array.length values then begin
            Sorted_index.replace idx ~old_value:(Value.Int values.(i))
              ~new_value:(Value.Int v) (oid i);
            values.(i) <- v
          end)
        moves;
      let lo = Sorted_index.Inclusive (Value.Int threshold)
      and hi = Sorted_index.Unbounded in
      let expected =
        Array.fold_left (fun n v -> if v >= threshold then n + 1 else n) 0 values
      in
      let entries = ref [] in
      Sorted_index.iter_entries idx (fun v o -> entries := (v, o) :: !entries);
      List.length (Sorted_index.probe_range idx counters ~lo ~hi) = expected
      && Sorted_index.count_range idx ~lo ~hi = expected
      && List.sort compare !entries
         = List.sort compare
             (List.mapi (fun i v -> (Value.Int v, oid i)) (Array.to_list values)))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let test_statistics_cardinalities () =
  let db = F.tiny_db () in
  let stats = Statistics.collect db.Soqm_core.Db.store in
  let p = F.tiny_params in
  check (Alcotest.float 0.1) "documents"
    (float_of_int p.Soqm_core.Datagen.n_docs)
    (Statistics.cardinality stats "Document");
  check (Alcotest.float 0.1) "paragraphs"
    (float_of_int
       (p.Soqm_core.Datagen.n_docs * p.Soqm_core.Datagen.sections_per_doc
      * p.Soqm_core.Datagen.paras_per_section))
    (Statistics.cardinality stats "Paragraph");
  check (Alcotest.float 0.01) "unknown class" 0.0 (Statistics.cardinality stats "Nope")

let test_statistics_fanout_distinct () =
  let db = F.tiny_db () in
  let stats = Statistics.collect db.Soqm_core.Db.store in
  let p = F.tiny_params in
  check (Alcotest.float 0.1) "sections per document"
    (float_of_int p.Soqm_core.Datagen.sections_per_doc)
    (Statistics.fanout stats ~cls:"Document" ~prop:"sections");
  check (Alcotest.float 0.1) "paragraphs per section"
    (float_of_int p.Soqm_core.Datagen.paras_per_section)
    (Statistics.fanout stats ~cls:"Section" ~prop:"paragraphs");
  (* titles are unique per document *)
  check (Alcotest.float 0.1) "distinct titles"
    (float_of_int p.Soqm_core.Datagen.n_docs)
    (Statistics.distinct stats ~cls:"Document" ~prop:"title");
  check (Alcotest.float 0.001) "eq selectivity"
    (1.0 /. float_of_int p.Soqm_core.Datagen.n_docs)
    (Statistics.eq_selectivity stats ~cls:"Document" ~prop:"title")

let test_statistics_method_metadata () =
  let db = F.tiny_db () in
  let stats = db.Soqm_core.Db.stats in
  check (Alcotest.float 0.001) "declared selectivity"
    Soqm_core.Doc_schema.selectivity_contains_string
    (Statistics.method_selectivity stats ~cls:"Paragraph" ~meth:"contains_string");
  check (Alcotest.float 0.001) "unknown method default" 0.5
    (Statistics.method_selectivity stats ~cls:"Paragraph" ~meth:"document");
  check Alcotest.bool "result card positive" true
    (Statistics.method_result_card stats ~cls:"Paragraph" ~meth:"retrieve_by_string"
    > 0.)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters_snapshot_independent () =
  let c = Counters.create () in
  Counters.incr c Objects_fetched;
  Counters.charge_method_call c ~meth:"m" ~cost:3.0;
  let snap = Counters.snapshot c in
  Counters.incr c Objects_fetched;
  Counters.charge_method_call c ~meth:"m" ~cost:3.0;
  check Alcotest.int "snapshot frozen fetches" 1
    (Counters.get snap Objects_fetched);
  check Alcotest.int "snapshot frozen calls" 1 (Counters.method_call_count snap "m");
  check Alcotest.int "original moved on" 2 (Counters.get c Objects_fetched);
  Counters.reset c Query;
  check Alcotest.int "reset" 0 (Counters.get c Objects_fetched);
  check (Alcotest.float 0.001) "reset cost" 0.0 (Counters.charged_cost c)

let test_counters_total_cost_monotone () =
  let c = Counters.create () in
  let before = Counters.total_cost c in
  Counters.incr c Index_probes;
  Counters.incr c Tuples_produced;
  Counters.incr c Property_reads;
  check Alcotest.bool "total grows" true (Counters.total_cost c > before)

let () =
  Alcotest.run "storage"
    [
      ( "tokenizer",
        [
          F.case "words" test_words;
          F.case "vocabulary" test_vocabulary;
          F.case "contains_word" test_contains_word;
          QCheck_alcotest.to_alcotest prop_tokenizer_agrees_with_index;
        ] );
      ( "inverted-index",
        [
          F.case "basic" test_inverted_basic;
          F.case "conjunctive" test_inverted_conjunctive;
          F.case "remove & clear" test_inverted_remove_clear;
          QCheck_alcotest.to_alcotest prop_inverted_index_complete;
        ] );
      ( "hash-index",
        [
          F.case "basic" test_hash_index_basic;
          F.case "delete" test_hash_index_delete;
          F.case "build from store" test_hash_index_build_from_store;
          QCheck_alcotest.to_alcotest prop_hash_index_agrees_with_scan;
        ] );
      ( "sorted-index",
        [
          F.case "range probes" test_sorted_index_ranges;
          F.case "maintenance" test_sorted_index_maintenance;
          F.case "build from store" test_sorted_index_build;
          QCheck_alcotest.to_alcotest prop_sorted_index_agrees;
        ] );
      ( "statistics",
        [
          F.case "cardinalities" test_statistics_cardinalities;
          F.case "fanout & distinct" test_statistics_fanout_distinct;
          F.case "method metadata" test_statistics_method_metadata;
        ] );
      ( "counters",
        [
          F.case "snapshot independence" test_counters_snapshot_independent;
          F.case "total cost monotone" test_counters_total_cost_monotone;
        ] );
    ]
