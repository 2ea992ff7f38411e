(* Observability must be observational: attaching a trace — any trace,
   even one too small to hold the event stream — must leave every
   extraction byte on the wire unchanged.  Plus unit coverage of the
   tracer itself: ring-buffer wrap/drop accounting, Chrome trace-event
   JSON well-formedness and escaping, the profile table, and a golden
   test pinning the scrubbed Chrome export of the golden fixture. *)

module Extractor = Wqi_core.Extractor
module Trace = Wqi_obs.Trace

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* --- tracing is observational --- *)

(* Same corpus as the parser equivalence suite: 60 generated sources
   across the three domains, both complexity levels, with noise. *)
let corpus_sources = Std_golden.corpus_sources

let test_tracing_observational () =
  let config = Extractor.Config.default in
  List.iter
    (fun (s : Wqi_corpus.Generator.source) ->
       let export ?trace () =
         Extractor.export ~timings:false ~name:s.id
           (Extractor.run ?trace config (Extractor.Html s.html))
       in
       let untraced = export () in
       let traced = export ~trace:(Trace.create ()) () in
       Alcotest.(check string) (s.id ^ ": traced = untraced") untraced traced;
       (* A saturated ring (capacity 2) drops most events; dropping must
          be as invisible as tracing. *)
       let tiny = Trace.create ~capacity:2 () in
       let saturated = export ~trace:tiny () in
       Alcotest.(check string)
         (s.id ^ ": saturated trace = untraced")
         untraced saturated;
       Alcotest.(check bool) (s.id ^ ": tiny ring dropped") true
         (Trace.dropped tiny > 0))
    (corpus_sources ())

(* --- ring buffer --- *)

let test_ring_wrap () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.instant (Some t) (Printf.sprintf "ev%d" i)
  done;
  Alcotest.(check int) "length saturates at capacity" 4 (Trace.length t);
  Alcotest.(check int) "dropped counts the overflow" 6 (Trace.dropped t);
  let json = Trace.to_chrome_json t in
  (* Oldest events were overwritten: the survivors are the last four. *)
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " survives") true (contains json name))
    [ "ev6"; "ev7"; "ev8"; "ev9" ];
  Alcotest.(check bool) "ev0 overwritten" false (contains json "\"ev0\"");
  Alcotest.(check bool) "drop count exported" true
    (contains json "\"dropped\": \"6\"")

let test_disabled_is_free_of_effects () =
  (* The [None] path must record nothing anywhere — it is the default
     for every caller, so it must be inert by construction. *)
  Trace.instant None "nothing";
  Trace.span None "nothing" ~t0:0. ~t1:1.;
  Alcotest.(check int) "with_span still runs the body" 7
    (Trace.with_span None "body" (fun () -> 7))

(* --- Chrome export --- *)

let test_chrome_json_escaping () =
  let t = Trace.create () in
  Trace.instant (Some t)
    ~args:[ ("note", Trace.Str "a\"b\\c\nd\tt\x01e") ]
    "weird \"name\"";
  let json = Trace.to_chrome_json t in
  Alcotest.(check bool) "name escaped" true
    (contains json "\"weird \\\"name\\\"\"");
  Alcotest.(check bool) "arg escaped" true
    (contains json "a\\\"b\\\\c\\nd\\tt\\u0001e");
  Alcotest.(check bool) "instant phase" true (contains json "\"ph\": \"i\"")

let test_chrome_span_fields () =
  let t = Trace.create () in
  Trace.span (Some t) ~cat:"stage"
    ~args:[ ("n", Trace.Int 3); ("r", Trace.Float 0.5); ("b", Trace.Bool true) ]
    "work" ~t0:0. ~t1:0.25;
  let json = Trace.to_chrome_json ~scrub_timestamps:true t in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("has " ^ needle) true (contains json needle))
    [ "\"traceEvents\"";
      "\"ph\": \"X\"";
      "\"cat\": \"stage\"";
      "\"name\": \"work\"";
      "\"n\": 3";
      "\"r\": 0.5";
      "\"b\": true";
      "\"displayTimeUnit\": \"ms\"" ]

(* --- profile table --- *)

let test_profile () =
  let t = Trace.create () in
  Trace.span (Some t) "parse" ~t0:0. ~t1:0.08;
  Trace.span (Some t) "parse" ~t0:0.1 ~t1:0.12;
  Trace.span (Some t) "html" ~t0:0. ~t1:0.01;
  Trace.span (Some t) "total" ~t0:0. ~t1:0.2;
  Trace.instant (Some t) ~args:[ ("created", Trace.Int 42) ] "budget_trip";
  let p = Trace.profile t in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("profile has " ^ needle) true (contains p needle))
    [ "parse"; "html"; "total"; "budget_trip"; "created=42" ];
  (* parse: 2 calls, 100 ms total. *)
  Alcotest.(check bool) "parse row aggregated" true (contains p "100.0")

(* --- golden Chrome trace --- *)

let test_golden_trace () =
  let html = read_file (Filename.concat "golden" "complete.html") in
  let trace = Trace.create () in
  ignore (Extractor.run ~trace Extractor.Config.default (Extractor.Html html));
  let actual = Trace.to_chrome_json ~scrub_timestamps:true trace ^ "\n" in
  let expected = read_file (Filename.concat "golden" "trace.json") in
  if expected <> actual then
    Alcotest.failf
      "scrubbed Chrome trace drifted from its golden file.@.--- golden@.\
       %s@.--- actual@.%s@.(regenerate with `dune exec \
       test/golden/gen_golden.exe -- test/golden` if the change is \
       intentional)"
      expected actual

let suite =
  [ ("tracing is observational over 60 sources", `Quick,
     test_tracing_observational);
    ("ring buffer wraps and counts drops", `Quick, test_ring_wrap);
    ("disabled tracer is inert", `Quick, test_disabled_is_free_of_effects);
    ("chrome JSON escaping", `Quick, test_chrome_json_escaping);
    ("chrome span fields", `Quick, test_chrome_span_fields);
    ("profile table aggregates spans", `Quick, test_profile);
    ("golden scrubbed chrome trace", `Quick, test_golden_trace) ]
