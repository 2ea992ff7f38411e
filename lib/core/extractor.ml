module Engine = Wqi_parser.Engine
module Instance = Wqi_grammar.Instance
module Token = Wqi_token.Token
module Semantic_model = Wqi_model.Semantic_model
module Merger = Wqi_model.Merger
module Budget = Wqi_budget.Budget
module Trace = Wqi_obs.Trace

module Config = struct
  type t = {
    grammar : Engine.compiled;
    options : Engine.options;
    width : int;
    budget : Budget.t;
  }

  (* The one remaining reference to the compiled-in standard grammar in
     lib/core: the legacy default.  [run] itself is grammar-parametric —
     it only ever consults [t.grammar].  The pack is the process-wide
     shared one: its arena pool then serves every default-config caller
     rather than one pool per compile site. *)
  let std = Wqi_stdgrammar.Std.compiled

  let default =
    { grammar = std;
      options = Engine.default_options;
      width = Wqi_layout.Style.page_width;
      budget = Budget.unlimited }

  let with_compiled grammar t = { t with grammar }
  let with_grammar grammar t = { t with grammar = Engine.compile grammar }
  let with_options options t = { t with options }
  let with_width width t = { t with width }
  let with_budget budget t = { t with budget }
end

type input =
  | Html of string
  | Document of Wqi_html.Dom.t
  | Tokens of Token.t list

type consumption = {
  html_nodes : int;
  boxes : int;
  charged_tokens : int;
  charged_instances : int;
  rounds : int;
}

type diagnostics = {
  token_count : int;
  parse_stats : Engine.stats;
  tree_count : int;
  complete : bool;
  tokenize_seconds : float;
  parse_seconds : float;
  html_seconds : float;
  layout_seconds : float;
  classify_seconds : float;
  merge_seconds : float;
  total_seconds : float;
  budget : Budget.t;
  consumption : consumption;
}

type extraction = {
  model : Semantic_model.t;
  tokens : Token.t list;
  trees : Instance.t list;
  outcome : Budget.outcome;
  diagnostics : diagnostics;
}

(* Stage timing plus a pipeline span when traced; the untraced path
   pays one [None] branch over the pre-tracing stage timer. *)
let timed trace name f =
  let t0 = Budget.now_s () in
  let v = f () in
  let t1 = Budget.now_s () in
  (match trace with
   | None -> ()
   | Some _ -> Trace.span trace ~cat:"pipeline" name ~t0 ~t1);
  (v, t1 -. t0)

(* Budget trips become instant events on the trace, one per trip, so a
   degraded extraction shows where in the timeline degradation began. *)
let trace_trips trace trips =
  match trace with
  | None -> ()
  | Some _ ->
    List.iter
      (fun (t : Budget.trip) ->
         Trace.instant trace ~cat:"pipeline"
           ~args:
             [ ("stage", Trace.Str (Budget.stage_name t.Budget.stage));
               ("reason", Trace.Str (Budget.reason_name t.Budget.reason));
               ("limit", Trace.Int t.Budget.limit);
               ("consumed", Trace.Int t.Budget.consumed) ]
           "budget_trip")
      trips

let zero_stats =
  { Engine.created = 0; live = 0; pruned = 0; rolled_back = 0; temporary = 0;
    truncated = false; guards_tried = 0; guards_admitted = 0; index_probes = 0;
    index_pruned = 0 }

let zero_consumption =
  { html_nodes = 0; boxes = 0; charged_tokens = 0; charged_instances = 0;
    rounds = 0 }

let consumption_of g =
  { html_nodes = Budget.html_nodes g;
    boxes = Budget.boxes g;
    charged_tokens = Budget.tokens g;
    charged_instances = Budget.instances g;
    rounds = Budget.rounds g }

let empty_diagnostics budget =
  { token_count = 0;
    parse_stats = zero_stats;
    tree_count = 0;
    complete = false;
    tokenize_seconds = 0.;
    parse_seconds = 0.;
    html_seconds = 0.;
    layout_seconds = 0.;
    classify_seconds = 0.;
    merge_seconds = 0.;
    total_seconds = 0.;
    budget;
    consumption = zero_consumption }

let failed ?stage message =
  { model = Semantic_model.empty;
    tokens = [];
    trees = [];
    outcome = Budget.Failed { Budget.error_stage = stage; message };
    diagnostics = empty_diagnostics Budget.unlimited }

(* Only trees that explain at least one condition count as parses of
   the query interface; a bare atom wrapper covers nothing semantic,
   so its tokens must still be reported as missing.  Only the tokens
   the merger can report — covered by no parse, and not a button or a
   decorative image, which carry no query semantics — are described. *)
let merge_trees tokens (result : Engine.result) =
  let rec explained = function
    | [] -> ([], [])
    | tree :: rest ->
      let trees, parses = explained rest in
      (match Instance.collect_conditions tree with
       | [] -> (trees, parses)
       | conditions ->
         ( tree :: trees,
           { Merger.conditions; cover = Instance.tokens tree } :: parses ))
  in
  let trees, parses = explained result.Engine.maximal in
  let covered = Bytes.make (List.length tokens) '\000' in
  List.iter
    (fun (p : Merger.parse) ->
       List.iter (fun id -> Bytes.set covered id '\001') p.Merger.cover)
    parses;
  let reportable (t : Token.t) =
    Bytes.get covered t.id = '\000'
    &&
    match t.kind with
    | Token.Button | Token.Image -> false
    | Token.Text | Token.Textbox | Token.Selection | Token.Radio
    | Token.Checkbox ->
      true
  in
  let all_tokens =
    List.filter_map
      (fun (t : Token.t) ->
         if reportable t then Some (t.id, Token.describe t) else None)
      tokens
  in
  (Merger.merge ~all_tokens parses, trees)

let run ?trace (config : Config.t) input =
  let g = Budget.start config.budget in
  (* An unlimited budget stays entirely off the stage hot paths: every
     gauge check in the pipeline is a [None] no-op, so ungoverned runs
     behave — instance ids included — exactly as before governance
     existed.  The trace is threaded the same way: [None] everywhere
     costs one branch per stage. *)
  let gauge = if Budget.is_unlimited config.budget then None else Some g in
  let stage = ref Budget.Html in
  let t_start = Budget.now_s () in
  try
    let doc, html_seconds =
      match input with
      | Html markup ->
        let d, s =
          timed trace "html" (fun () -> Wqi_html.Parser.parse ?gauge ?trace markup)
        in
        (Some d, s)
      | Document d -> (Some d, 0.)
      | Tokens _ -> (None, 0.)
    in
    stage := Budget.Layout;
    let atoms, layout_seconds =
      match doc with
      | Some d ->
        timed trace "layout" (fun () ->
            Wqi_layout.Engine.render ?gauge ?trace ~width:config.width d)
      | None -> ([], 0.)
    in
    stage := Budget.Tokenize;
    let tokens, classify_seconds =
      match input with
      | Tokens tokens -> (tokens, 0.)
      | Html _ | Document _ ->
        timed trace "classify" (fun () ->
            Wqi_token.Tokenize.of_atoms ?gauge ?trace atoms)
    in
    stage := Budget.Parse;
    let result, parse_seconds =
      timed trace "parse" (fun () ->
          Engine.parse_compiled ?gauge ?trace ~options:config.options
            config.grammar tokens)
    in
    stage := Budget.Merge;
    let (model, trees), merge_seconds =
      timed trace "merge" (fun () -> merge_trees tokens result)
    in
    let outcome =
      match Budget.trips g with
      | _ :: _ as trips -> Budget.Degraded trips
      | [] ->
        if result.Engine.stats.truncated then
          (* Truncated by the engine-level [max_instances] safety valve
             rather than by the gauge: surface it the same way. *)
          Budget.Degraded
            [ { Budget.stage = Budget.Parse;
                reason = Budget.Instances;
                limit = config.options.max_instances;
                consumed = result.Engine.stats.created } ]
        else Budget.Complete
    in
    (match trace with
     | None -> ()
     | Some _ ->
       (match outcome with
        | Budget.Degraded trips -> trace_trips trace trips
        | Budget.Complete | Budget.Failed _ -> ());
       Trace.span trace ~cat:"pipeline" "total" ~t0:t_start
         ~t1:(Budget.now_s ()));
    { model;
      tokens;
      trees;
      outcome;
      diagnostics =
        { token_count = List.length tokens;
          parse_stats = result.Engine.stats;
          tree_count = List.length trees;
          complete = result.Engine.complete <> None;
          tokenize_seconds = layout_seconds +. classify_seconds;
          parse_seconds;
          html_seconds;
          layout_seconds;
          classify_seconds;
          merge_seconds;
          total_seconds = Budget.elapsed_ms g /. 1000.;
          budget = config.budget;
          consumption = consumption_of g } }
  with e ->
    (match trace with
     | None -> ()
     | Some _ ->
       Trace.instant trace ~cat:"pipeline"
         ~args:
           [ ("stage", Trace.Str (Budget.stage_name !stage));
             ("error", Trace.Str (Printexc.to_string e)) ]
         "failed";
       Trace.span trace ~cat:"pipeline" "total" ~t0:t_start
         ~t1:(Budget.now_s ()));
    { model = Semantic_model.empty;
      tokens = [];
      trees = [];
      outcome =
        Budget.Failed
          { Budget.error_stage = Some !stage; message = Printexc.to_string e };
      diagnostics =
        { (empty_diagnostics config.budget) with
          total_seconds = Budget.elapsed_ms g /. 1000.;
          consumption = consumption_of g } }

let run_forms ?trace (config : Config.t) html =
  let module Dom = Wqi_html.Dom in
  let g = Budget.start config.budget in
  let gauge = if Budget.is_unlimited config.budget then None else Some g in
  let doc, _ =
    timed trace "html" (fun () -> Wqi_html.Parser.parse ?gauge ?trace html)
  in
  (* The page-level parse has its own gauge; if it tripped, every form
     extraction below worked on a truncated page and must say so. *)
  let page_trips = Budget.trips g in
  let degrade e =
    match (page_trips, e.outcome) with
    | [], _ | _, Budget.Failed _ -> e
    | _, Budget.Complete -> { e with outcome = Budget.Degraded page_trips }
    | _, Budget.Degraded trips ->
      { e with outcome = Budget.Degraded (page_trips @ trips) }
  in
  match Dom.find_all (Dom.is_element ~named:"form") doc with
  | [] -> [ degrade (run ?trace config (Document doc)) ]
  | forms ->
    List.map
      (fun form ->
         (* Lay out each form as its own page so that unrelated page
            furniture cannot interfere with its spatial structure. *)
         let isolated = Dom.element "html" [ Dom.element "body" [ form ] ] in
         degrade (run ?trace config (Document isolated)))
      forms

let load_grammar path =
  match
    Wqi_grammar.Loader.load_grammar ~env:Wqi_stdgrammar.Std.env path
  with
  | Error msg -> Error msg
  | Ok (decl, g) ->
    (match
       Engine.compile ~name:decl.Wqi_grammar.Algebra.g_name
         ~version:decl.Wqi_grammar.Algebra.g_version g
     with
     | pack -> Ok pack
     | exception Invalid_argument msg -> Error (path ^ ": " ^ msg))

let config_of ?grammar ?options ?width () =
  let c = Config.default in
  let c = match grammar with Some g -> Config.with_grammar g c | None -> c in
  let c = match options with Some options -> { c with Config.options } | None -> c in
  match width with Some width -> { c with Config.width } | None -> c

let extract_tokens ?grammar ?options tokens =
  run (config_of ?grammar ?options ()) (Tokens tokens)

let extract_document ?grammar ?options ?width doc =
  run (config_of ?grammar ?options ?width ()) (Document doc)

let extract ?grammar ?options ?width html =
  run (config_of ?grammar ?options ?width ()) (Html html)

let extract_forms ?grammar ?options ?width html =
  run_forms (config_of ?grammar ?options ?width ()) html

let conditions e = e.model.Semantic_model.conditions

let export ?(timings = true) ~name ?url e =
  let module E = Wqi_model.Export in
  let d = e.diagnostics in
  let seconds s = Printf.sprintf "%.6f" s in
  let consumed =
    E.obj
      [ ("html_nodes", string_of_int d.consumption.html_nodes);
        ("boxes", string_of_int d.consumption.boxes);
        ("tokens", string_of_int d.consumption.charged_tokens);
        ("instances", string_of_int d.consumption.charged_instances);
        ("rounds", string_of_int d.consumption.rounds) ]
  in
  let diagnostics =
    [ ("tokens", string_of_int d.token_count);
      ("instances_created", string_of_int d.parse_stats.Engine.created);
      ("instances_live", string_of_int d.parse_stats.Engine.live);
      ("pruned", string_of_int d.parse_stats.Engine.pruned);
      ("rolled_back", string_of_int d.parse_stats.Engine.rolled_back);
      ("guards_tried", string_of_int d.parse_stats.Engine.guards_tried);
      ("guards_admitted", string_of_int d.parse_stats.Engine.guards_admitted);
      ("index_probes", string_of_int d.parse_stats.Engine.index_probes);
      ("index_pruned", string_of_int d.parse_stats.Engine.index_pruned);
      ("trees", string_of_int d.tree_count);
      ("complete", string_of_bool d.complete);
      ("truncated", string_of_bool d.parse_stats.Engine.truncated) ]
    @ (if timings then
         [ ("seconds",
            E.obj
              [ ("html", seconds d.html_seconds);
                ("layout", seconds d.layout_seconds);
                ("classify", seconds d.classify_seconds);
                ("parse", seconds d.parse_seconds);
                ("merge", seconds d.merge_seconds);
                ("total", seconds d.total_seconds) ]) ]
       else [])
    @ [ ("budget", E.budget d.budget);
        ("consumed", consumed) ]
  in
  E.extraction ~name ?url ~diagnostics ~outcome:e.outcome e.model
