(* The standard grammar's parse golden (std_parse.txt): everything the
   parser equivalence check compares, rendered one line per corpus
   source, plus the hinted guard count and one line per production with
   the hints it carries.  A change to the grammar declaration, the
   algebra's compiled guards or its hint derivation shows up here as a
   byte difference — instance ids and guard counts included, since ids
   break ties in maximal-tree selection and guard counts expose a lost
   hint that leaves results unchanged. *)

module G = Wqi_grammar
module Instance = G.Instance
module Engine = Wqi_parser.Engine
module Generator = Wqi_corpus.Generator

(* 60 generated sources across the three domains, both complexity
   levels, with a sprinkle of out-of-grammar noise. *)
let corpus_sources () =
  let g = Wqi_corpus.Prng.create 0xE9015L in
  let domains = Wqi_corpus.Vocabulary.core_three in
  List.init 60 (fun i ->
      Generator.generate g
        ~id:(Printf.sprintf "equiv-%02d" i)
        ~domain:(List.nth domains (i mod 3))
        ~complexity:(if i mod 2 = 0 then `Simple else `Rich)
        ~oog_prob:(if i mod 5 = 0 then 0.1 else 0.)
        ())

let ids instances = List.map (fun (i : Instance.t) -> i.Instance.id) instances

let tree_strings instances =
  List.map (Fmt.str "%a" Instance.pp_tree) instances

let model_strings (result : Engine.result) =
  List.concat_map
    (fun tree ->
       List.map
         (fun (c, toks) ->
            Fmt.str "%a@%a" Wqi_model.Condition.pp c
              Fmt.(list ~sep:(any ",") int)
              toks)
         (Instance.collect_conditions tree))
    result.Engine.maximal

let strings l = "[" ^ String.concat "|" (List.map String.escaped l) ^ "]"
let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let source_line grammar (s : Generator.source) =
  let r = Engine.parse grammar (Wqi_token.Tokenize.of_html s.Generator.html) in
  let st = r.Engine.stats in
  Printf.sprintf
    "source %s created=%d live=%d pruned=%d rolled_back=%d truncated=%b \
     complete=%b guards_tried=%d live_ids=%s maximal_ids=%s trees=%s \
     model=%s"
    s.Generator.id st.Engine.created st.Engine.live st.Engine.pruned
    st.Engine.rolled_back st.Engine.truncated (r.Engine.complete <> None)
    st.Engine.guards_tried (ints (ids r.Engine.all_live))
    (ints (ids r.Engine.maximal))
    (strings (tree_strings r.Engine.maximal))
    (strings (model_strings r))

let production_line (p : G.Production.t) =
  Printf.sprintf "production %s hints=%s" p.G.Production.name
    (strings (List.map (Fmt.str "%a" G.Hint.pp) p.G.Production.hints))

(* Productions in declaration order, then the corpus sources in
   order, one line each. *)
let render (grammar : G.Grammar.t) =
  String.concat "\n"
    (List.map production_line grammar.G.Grammar.productions
     @ List.map (source_line grammar) (corpus_sources ()))
  ^ "\n"

(* Minor words the extractor's merge stage allocates per document:
   [Extractor.merge_trees] on each corpus source's parse, with
   [Gc.minor_words] read around the call.  The count is a function of
   the code and the corpus alone, so a test can gate it. *)
let merge_minor_words_per_doc () =
  let sources = corpus_sources () in
  let total =
    List.fold_left
      (fun acc (s : Generator.source) ->
         let tokens = Wqi_token.Tokenize.of_html s.Generator.html in
         let result =
           Engine.parse_compiled Wqi_stdgrammar.Std.compiled tokens
         in
         let w0 = Gc.minor_words () in
         ignore
           (Sys.opaque_identity (Wqi_core.Extractor.merge_trees tokens result));
         acc +. (Gc.minor_words () -. w0))
      0. sources
  in
  total /. float_of_int (List.length sources)
