type 'k t = (string, ('k, unit) Hashtbl.t) Hashtbl.t

let create () = Hashtbl.create 4096
let clear t = Hashtbl.reset t

let postings t word =
  match Hashtbl.find_opt t word with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 8 in
    Hashtbl.replace t word s;
    s

let add t ~key ~text =
  List.iter (fun w -> Hashtbl.replace (postings t w) key ()) (Tokenizer.vocabulary text)

let remove_word t w key =
  match Hashtbl.find_opt t w with
  | None -> ()
  | Some s ->
    Hashtbl.remove s key;
    if Hashtbl.length s = 0 then Hashtbl.remove t w

let remove t ~key ~text =
  List.iter (fun w -> remove_word t w key) (Tokenizer.vocabulary text)

let replace t ~key ~old_text ~text =
  let new_words = Tokenizer.vocabulary text in
  let keep = Hashtbl.create (List.length new_words) in
  List.iter (fun w -> Hashtbl.replace keep w ()) new_words;
  (* only drop postings for words that really left; postings are keyed
     sets, so re-adding the surviving words is idempotent *)
  List.iter
    (fun w -> if not (Hashtbl.mem keep w) then remove_word t w key)
    (Tokenizer.vocabulary old_text);
  List.iter (fun w -> Hashtbl.replace (postings t w) key ()) new_words

let lookup t word =
  match Hashtbl.find_opt t (String.lowercase_ascii word) with
  | None -> []
  | Some s -> Hashtbl.fold (fun k () acc -> k :: acc) s []

let lookup_all t query =
  match Tokenizer.vocabulary query with
  | [] -> []
  | w :: ws ->
    let first = lookup t w in
    List.filter
      (fun k ->
        List.for_all
          (fun w' ->
            match Hashtbl.find_opt t w' with
            | None -> false
            | Some s -> Hashtbl.mem s k)
          ws)
      first

let load_postings t ~word ~keys =
  let s = Hashtbl.create (List.length keys) in
  List.iter (fun k -> Hashtbl.replace s k ()) keys;
  Hashtbl.replace t word s

let iter_postings t f =
  Hashtbl.iter
    (fun w s -> f w (Hashtbl.fold (fun k () acc -> k :: acc) s []))
    t

let word_count t = Hashtbl.length t

let posting_count t word =
  match Hashtbl.find_opt t (String.lowercase_ascii word) with
  | None -> 0
  | Some s -> Hashtbl.length s
