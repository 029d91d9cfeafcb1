open Soqm_vml
open Soqm_semantics

let wc p = Expr.Prop (Expr.Ref p, "word_count")
let wc_call p = Expr.Call (Expr.Ref p, "wordCount", [])
let int_ n = Expr.Const (Value.Int n)

(* wordCount() returns the precomputed word_count property, so the
   method/property equivalence is sound for the document database's
   external implementation. *)
let wc_method_equiv =
  Equivalence.Expr_equiv
    {
      name = "G-wc-method";
      cls = "Paragraph";
      var = "p";
      lhs = wc_call "p";
      rhs = wc "p";
    }

let family ?(thresholds = 8) ?(step = 100) () =
  let ts = List.init thresholds (fun i -> (i + 1) * step) in
  (* adjacent threshold implications: wc > 200 ⇒ wc > 100, ... — the
     saturation pass closes the chain into all O(n²) pairs *)
  let chain =
    List.filter_map
      (fun i ->
        if i = 0 then None
        else
          let hi = List.nth ts i and lo = List.nth ts (i - 1) in
          Some
            (Equivalence.Implication
               {
                 name = Printf.sprintf "G-wc-gt-%d-%d" hi lo;
                 cls = "Paragraph";
                 var = "p";
                 antecedent = Expr.Binop (Expr.Gt, wc "p", int_ hi);
                 consequent = Expr.Binop (Expr.Gt, wc "p", int_ lo);
               }))
      (List.init thresholds Fun.id)
  in
  (* integer off-by-one equivalences: wc > t ⇔ wc >= t+1 *)
  let ge_equivs =
    List.map
      (fun t ->
        Equivalence.Cond_equiv
          {
            name = Printf.sprintf "G-wc-ge-%d" t;
            cls = "Paragraph";
            var = "p";
            lhs = Expr.Binop (Expr.Gt, wc "p", int_ t);
            rhs = Expr.Binop (Expr.Ge, wc "p", int_ (t + 1));
          })
      ts
  in
  (wc_method_equiv :: chain) @ ge_equivs

(* ------------------------------------------------------------------ *)
(* seeded-unsound mutations                                            *)
(* ------------------------------------------------------------------ *)

let large_paragraphs p =
  Expr.Binop
    ( Expr.IsIn,
      Expr.Ref p,
      Expr.Prop (Expr.Call (Expr.Ref p, "document", []), "largeParagraphs") )

let mutations () =
  [
    ( "off-by-threshold",
      (* the maintained set holds wc > 500 members; claiming it for
         wc > 400 is refuted by any paragraph in (400, 500] *)
      Equivalence.Implication
        {
          name = "M-threshold-400";
          cls = "Paragraph";
          var = "p";
          antecedent = Expr.Binop (Expr.Gt, wc_call "p", int_ 400);
          consequent = large_paragraphs "p";
        } );
    ( "flipped-comparison",
      Equivalence.Implication
        {
          name = "M-flipped-lt";
          cls = "Paragraph";
          var = "p";
          antecedent = Expr.Binop (Expr.Lt, wc_call "p", int_ 500);
          consequent = large_paragraphs "p";
        } );
    ( "wrong-class-path",
      (* p->document() is a Document, not the paragraph's section *)
      Equivalence.Expr_equiv
        {
          name = "M-wrong-class";
          cls = "Paragraph";
          var = "p";
          lhs = Expr.Call (Expr.Ref "p", "document", []);
          rhs = Expr.Prop (Expr.Ref "p", "section");
        } );
    ( "off-by-one-boundary",
      (* false exactly at wc = 500 *)
      Equivalence.Cond_equiv
        {
          name = "M-boundary-500";
          cls = "Paragraph";
          var = "p";
          lhs = Expr.Binop (Expr.Gt, wc "p", int_ 500);
          rhs = Expr.Binop (Expr.Ge, wc "p", int_ 500);
        } );
    ( "negated-index",
      Equivalence.Cond_equiv
        {
          name = "M-negated-index";
          cls = "Document";
          var = "d";
          lhs =
            Expr.Binop
              (Expr.Neq, Expr.Prop (Expr.Ref "d", "title"), Expr.Param "s");
          rhs =
            Expr.Binop
              ( Expr.IsIn,
                Expr.Ref "d",
                Expr.Call
                  (Expr.ClassObj "Document", "select_by_index", [ Expr.Param "s" ])
              );
        } );
    ( "converse-owner",
      (* the converse of the largeParagraphs owner invariant: sharing the
         owner document does not make a paragraph large, so any small
         paragraph refutes it *)
      Equivalence.Implication
        {
          name = "M-converse-owner";
          cls = "Paragraph";
          var = "p";
          antecedent =
            Expr.Binop
              (Expr.Eq, Expr.Call (Expr.Ref "p", "document", []), Expr.Param "D");
          consequent =
            Expr.Binop
              ( Expr.IsIn,
                Expr.Ref "p",
                Expr.Prop (Expr.Param "D", "largeParagraphs") );
        } );
    ( "wrong-query-method",
      (* retrieve_by_string returns the paragraphs containing s, not the
         ones with a nonempty content *)
      Equivalence.Query_method
        {
          name = "M-wrong-query";
          cls = "Paragraph";
          var = "p";
          cond =
            Expr.Binop
              (Expr.Neq, Expr.Prop (Expr.Ref "p", "content"), Expr.Param "s");
          meth_cls = "Paragraph";
          meth = "retrieve_by_string";
          args = [ Equivalence.Arg_param "s" ];
        } );
  ]
