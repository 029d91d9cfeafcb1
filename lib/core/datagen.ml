open Soqm_vml

type params = {
  n_docs : int;
  sections_per_doc : int;
  paras_per_section : int;
  vocab_size : int;
  words_per_para : int;
  hit_probability : float;
  large_fraction : float;
  seed : int;
}

let default =
  {
    n_docs = 50;
    sections_per_doc = 4;
    paras_per_section = 6;
    vocab_size = 500;
    words_per_para = 12;
    hit_probability = 0.05;
    large_fraction = 0.10;
    seed = 42;
  }

let query_word = "Implementation"
let query_title = "Query Optimization"

(* SplitMix64-style deterministic generator; independent of the global
   Random state so databases are reproducible across processes. *)
module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int (seed * 2654435761 + 1) }

  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let float t =
    (* 53 random bits into [0, 1) *)
    let bits = Int64.shift_right_logical (next t) 11 in
    Int64.to_float bits /. 9007199254740992.0

  let int t bound = int_of_float (float t *. float_of_int bound)
end

(* Zipf-flavoured word pick: squaring the uniform skews towards low
   indexes, giving a few frequent and many rare words. *)
let pick_word rng vocab_size =
  let u = Prng.float rng in
  let idx = int_of_float (u *. u *. float_of_int vocab_size) in
  Printf.sprintf "w%d" (min idx (vocab_size - 1))

let paragraph_content rng p ~force_hit =
  let buf = Buffer.create 80 in
  for _ = 1 to p.words_per_para do
    Buffer.add_string buf (pick_word rng p.vocab_size);
    Buffer.add_char buf ' '
  done;
  if force_hit || Prng.float rng < p.hit_probability then (
    Buffer.add_string buf query_word;
    Buffer.add_char buf ' ');
  Buffer.contents buf

let populate store p =
  let rng = Prng.create p.seed in
  for d = 0 to p.n_docs - 1 do
    let title = if d = 0 then query_title else Printf.sprintf "Title %d" d in
    let author = Printf.sprintf "Author %d" (d mod 7) in
    let doc =
      Object_store.create_object store ~cls:"Document"
        [ ("title", Value.Str title); ("author", Value.Str author) ]
    in
    let large = ref [] in
    for s = 0 to p.sections_per_doc - 1 do
      let sec =
        Object_store.create_object store ~cls:"Section"
          [
            ("number", Value.Int s);
            ("title", Value.Str (Printf.sprintf "Section %d.%d" d s));
            ("document", Value.Obj doc);
          ]
      in
      for q = 0 to p.paras_per_section - 1 do
        (* the first paragraph of each document's first section always
           contains the query word, so the worked-example query is never
           vacuous regardless of parameters *)
        let content = paragraph_content rng p ~force_hit:(s = 0 && q = 0) in
        let word_count =
          if Prng.float rng < p.large_fraction then 501 + Prng.int rng 500
          else 20 + Prng.int rng 400
        in
        let para =
          Object_store.create_object store ~cls:"Paragraph"
            [
              ("number", Value.Int q);
              ("section", Value.Obj sec);
              ("content", Value.Str content);
              ("word_count", Value.Int word_count);
            ]
        in
        if word_count > 500 then large := Value.Obj para :: !large
      done
    done;
    (* derived data, written the way its maintainer writes it *)
    Object_store.set_prop_derived store doc "largeParagraphs" (Value.set !large)
  done
