(* The per-document crawl path, called from outside the program: once as
   the program runs it ([Extractor.run] and friends, untraced), and once
   stage by stage through each layer's public function, with a span and
   a minor-word count around every call. *)

module E = Wqi_core.Extractor
module Budget = Wqi_budget.Budget
module Engine = Wqi_parser.Engine
module Instance = Wqi_grammar.Instance
module Token = Wqi_token.Token
module Merger = Wqi_model.Merger
module Store = Wqi_store.Store
module Key = Wqi_store.Key
module Quality = Wqi_quality.Quality

let now = Budget.now_s
let config = E.Config.default
let pack = config.E.Config.grammar
let grammar_id = pack.Engine.name ^ "@" ^ pack.Engine.version

(* The spec the server and wqi_crawl render for [name] under the default
   (unlimited) budget, so in-process keys equal the server's. *)
let key_of ~name html =
  Key.make ~html
    ~spec:
      (Key.spec ~grammar_name:pack.Engine.name
         ~grammar_version:pack.Engine.version ~name config.E.Config.budget)

let meta_of (e : E.extraction) (q : Quality.t) =
  { Store.source = q.Quality.source;
    grammar = grammar_id;
    outcome =
      (match e.E.outcome with Budget.Degraded _ -> "degraded" | _ -> "complete");
    domain = "";
    quality =
      Some
        { Store.q_score = q.Quality.score;
          q_coverage = q.Quality.coverage;
          q_conflicts = q.Quality.conflicts } }

type crawled = {
  extraction : E.extraction;
  bytes : string option;  (** [None] when the extraction failed *)
  key : Key.t;
}

(* The wqi_crawl path for one new document: key, store probe, extract,
   quality record, export, store put. *)
let crawl store ~name html =
  let key = key_of ~name html in
  ignore (Store.meta store key : Store.meta option);
  let e = E.run config (E.Html html) in
  let q = Quality.of_extraction ~source:name ~grammar:grammar_id e in
  ignore (Quality.to_json q : string);
  match e.E.outcome with
  | Budget.Failed _ -> { extraction = e; bytes = None; key }
  | Budget.Complete | Budget.Degraded _ ->
    let bytes = E.export ~timings:false ~name e in
    Store.put store key ~meta:(meta_of e q) bytes;
    { extraction = e; bytes = Some bytes; key }

(* ---------------------------------------------------------------- *)
(* Spans                                                            *)
(* ---------------------------------------------------------------- *)

(* Layers, in the order the staged path calls them.  [doc] is the root
   span of one document; its self time is the benchmark's own glue. *)
let layers =
  [| "doc"; "store.key"; "store.find"; "html"; "layout"; "token"; "parser";
     "model.merge"; "model.export"; "quality"; "store.put" |]

let n_layers = Array.length layers

type spans = {
  mutable n : int;
  mutable layer : int array;
  mutable doc : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
}

let spans () =
  { n = 0; layer = [||]; doc = [||]; parent = [||]; t0 = [||]; t1 = [||] }

let grow s =
  let cap = max 1024 (2 * Array.length s.layer) in
  let extend a z = Array.append a (Array.make (cap - Array.length a) z) in
  s.layer <- extend s.layer 0;
  s.doc <- extend s.doc 0;
  s.parent <- extend s.parent 0;
  s.t0 <- extend s.t0 0.;
  s.t1 <- extend s.t1 0.

let record s ~layer ~doc ~parent ~t0 ~t1 =
  if s.n = Array.length s.layer then grow s;
  let i = s.n in
  s.layer.(i) <- layer;
  s.doc.(i) <- doc;
  s.parent.(i) <- parent;
  s.t0.(i) <- t0;
  s.t1.(i) <- t1;
  s.n <- i + 1;
  i

(* A span's self time is its duration minus what its children cover;
   children of one parent never overlap here. *)
let self_times s =
  let self = Array.init s.n (fun i -> s.t1.(i) -. s.t0.(i)) in
  for i = 0 to s.n - 1 do
    let p = s.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (s.t1.(i) -. s.t0.(i))
  done;
  self

let write_spans s path =
  let oc = open_out path in
  for i = 0 to s.n - 1 do
    Printf.fprintf oc
      "{\"name\":%S,\"doc\":%d,\"id\":%d,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
      layers.(s.layer.(i)) s.doc.(i) i s.parent.(i) s.t0.(i) s.t1.(i)
  done;
  close_out oc

(* ---------------------------------------------------------------- *)
(* The staged path                                                  *)
(* ---------------------------------------------------------------- *)

(* Per-document deterministic counters: they must repeat exactly when
   the same document is processed again. *)
type counters = {
  words : float array;  (** minor words allocated, per layer *)
  atoms : int;
  tokens : int;
  stats : Engine.stats;
  export_bytes : int;
  digest : string;      (** of the export bytes *)
}

(* Extractor's merge stage: only trees explaining a condition count;
   buttons and images are never reported missing. *)
let merge_trees tokens (result : Engine.result) =
  let trees =
    List.filter
      (fun tree -> Instance.collect_conditions tree <> [])
      result.Engine.maximal
  in
  let parses =
    List.map
      (fun tree ->
         { Merger.conditions = Instance.collect_conditions tree;
           cover = Instance.tokens tree })
      trees
  in
  let all_tokens = List.map (fun (t : Token.t) -> (t.id, Token.describe t)) tokens in
  let kinds = Array.of_list (List.map (fun (t : Token.t) -> t.Token.kind) tokens) in
  let ignorable id =
    match kinds.(id) with Token.Button | Token.Image -> true | _ -> false
  in
  (Merger.merge ~all_tokens ~ignorable parses, trees)

let zero_consumption =
  { E.html_nodes = 0; boxes = 0; charged_tokens = 0; charged_instances = 0;
    rounds = 0 }

(* The crawl path again, one public layer function at a time.  With
   [spans = None] nothing is recorded (the warm-up pass).  Returns the
   export bytes, the key and the counters. *)
let staged ?spans store ~doc ~name html =
  let words = Array.make n_layers 0. in
  let root = ref (-1) in
  let t_doc = now () in
  let step layer f =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    words.(layer) <- Gc.minor_words () -. w0;
    (match spans with
     | Some s -> ignore (record s ~layer ~doc ~parent:(-1) ~t0 ~t1 : int)
     | None -> ());
    v
  in
  let first = match spans with Some s -> s.n | None -> 0 in
  let key = step 1 (fun () -> key_of ~name html) in
  ignore (step 2 (fun () -> Store.find store key) : string option);
  let dom = step 3 (fun () -> Wqi_html.Parser.parse html) in
  let atoms =
    step 4 (fun () -> Wqi_layout.Engine.render ~width:config.E.Config.width dom)
  in
  let tokens = step 5 (fun () -> Wqi_token.Tokenize.of_atoms atoms) in
  let result =
    step 6 (fun () ->
        Engine.parse_compiled ~options:config.E.Config.options pack tokens)
  in
  let model, trees = step 7 (fun () -> merge_trees tokens result) in
  let stats = result.Engine.stats in
  let e =
    { E.model;
      tokens;
      trees;
      outcome =
        (if stats.Engine.truncated then
           Budget.Degraded
             [ { Budget.stage = Budget.Parse; reason = Budget.Instances;
                 limit = config.E.Config.options.Engine.max_instances;
                 consumed = stats.Engine.created } ]
         else Budget.Complete);
      diagnostics =
        { E.token_count = List.length tokens;
          parse_stats = stats;
          tree_count = List.length trees;
          complete = result.Engine.complete <> None;
          tokenize_seconds = 0.; parse_seconds = 0.; html_seconds = 0.;
          layout_seconds = 0.; classify_seconds = 0.; merge_seconds = 0.;
          total_seconds = 0.;
          budget = config.E.Config.budget;
          consumption = zero_consumption } }
  in
  let bytes = step 8 (fun () -> E.export ~timings:false ~name e) in
  let q =
    step 9 (fun () ->
        let q = Quality.of_extraction ~source:name ~grammar:grammar_id e in
        ignore (Quality.to_json q : string);
        q)
  in
  step 10 (fun () -> Store.put store key ~meta:(meta_of e q) bytes);
  (match spans with
   | Some s ->
     root := record s ~layer:0 ~doc ~parent:(-1) ~t0:t_doc ~t1:(now ());
     for i = first to !root - 1 do s.parent.(i) <- !root done
   | None -> ());
  ( bytes,
    key,
    { words;
      atoms = List.length atoms;
      tokens = List.length tokens;
      stats;
      export_bytes = String.length bytes;
      digest = Digest.string bytes } )
