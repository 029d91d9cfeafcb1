(* Implication rules and precomputed information (Section 4.2): the
   schema guarantees

     p IN Paragraph: p->wordCount() > 500
                     => p IS-IN p->document().largeParagraphs

   so a query with the expensive wordCount predicate can be answered
   from the precomputed largeParagraphs sets — the implication is "very
   interesting for finding efficient execution plans in the presence of
   precomputed information".  Maintenance keeps every paragraph in its
   own document's set and nowhere else (the owner invariant, which
   check-rules verifies), so the optimizer scans the documents and
   unnests their sets instead of scanning the paragraphs, calling the
   expensive method only on the sets' members.

   Run with: dune exec examples/precomputed_predicates.exe *)

open Soqm_vml
open Soqm_core

let query = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500"

let () =
  Printf.printf "query:\n  %s\n\n" query;
  Printf.printf "%12s  %14s  %14s  %16s\n" "large frac" "without impl"
    "with impl" "wordCount calls";
  List.iter
    (fun large_fraction ->
      let db =
        Db.create
          ~params:{ Datagen.default with n_docs = 40; large_fraction }
          ()
      in
      let with_impl = Engine.generate db in
      let without_impl =
        Engine.generate
          ~classes:
            Doc_knowledge.
              [ Path_methods; Index_equivalences; Inverse_links; Query_method_equivs ]
          db
      in
      let r_with = Engine.run_optimized with_impl query in
      let r_without = Engine.run_optimized without_impl query in
      assert (Soqm_algebra.Relation.equal r_with.Engine.result r_without.Engine.result);
      Printf.printf "%11.0f%%  %14.1f  %14.1f  %7d -> %6d\n"
        (large_fraction *. 100.)
        (Counters.total_cost r_without.Engine.counters)
        (Counters.total_cost r_with.Engine.counters)
        (Counters.method_call_count r_without.Engine.counters "Paragraph.wordCount")
        (Counters.method_call_count r_with.Engine.counters "Paragraph.wordCount"))
    [ 0.01; 0.10; 0.50 ];
  Printf.printf
    "\nthe implication lets the optimizer generate the candidates from the\n\
     precomputed sets, calling the expensive method only on their members.\n"
