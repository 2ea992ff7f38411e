(* The repository benchmark.  See README.md for the workloads, the
   metrics and which layer each per-layer metric should move.

   perfbench --workload W --seed N --seconds S --trace 0|1
             --server PATH --work-dir DIR

   The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   With --trace 0 the metrics are the end-to-end ones, with --trace 1
   the per-layer ones. *)

module E = Wqi_core.Extractor
module Budget = Wqi_budget.Budget
module Engine = Wqi_parser.Engine
module Store = Wqi_store.Store
module Metrics = Wqi_metrics.Metrics
module Prng = Wqi_corpus.Prng
module P = Pipeline

let now = P.now

(* ---------------------------------------------------------------- *)
(* Statistics and output                                            *)
(* ---------------------------------------------------------------- *)

(* Nearest-rank percentiles of an ascending array; [nan] when empty. *)
let pct_sorted p s =
  let n = Array.length s in
  if n = 0 then nan else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let pct p a = pct_sorted p (sorted a)

let median a = pct 0.5 a
let sum a = Array.fold_left ( +. ) 0. a

(* On a shared host other tenants slow whole spells of a run by up to a
   third, so the in-process figures come from the fastest tenth of the
   measured chunks (whole passes over one document set, so every chunk
   does the same work): their per-document times, concatenated in
   measurement order.  A chunk's time includes the garbage collection
   its documents caused. *)
let fastest_tenth chunks =
  let mean a = sum a /. float (Array.length a) in
  let ranked = List.sort compare (List.mapi (fun i c -> (mean c, i)) chunks) in
  let k = max 1 (List.length chunks / 10) in
  let keep = List.filteri (fun j _ -> j < k) ranked |> List.map snd in
  Array.concat (List.filteri (fun i _ -> List.mem i keep) chunks)

(* ---------------------------------------------------------------- *)
(* Host speed                                                       *)
(* ---------------------------------------------------------------- *)

(* The speed a shared host gives a run drifts over minutes: on a 2-vCPU
   Xeon VM a fixed CPU loop took anywhere from 0.28 to 0.65 s in runs
   minutes apart, and every timing metric moved with it.  So a run also
   times [kernel], a fixed piece of OCaml work that never calls the
   program, at intervals throughout its measurement.  The timing
   metrics are reported at the host speed at which [kernel] takes
   [kernel_ref_s]: times are divided, and rates multiplied, by the
   run's [slowdown], the mean of the kernel's fastest tenth over
   [kernel_ref_s].  The raw figures are printed beside them. *)
let kernel_ref_s = 0.010

let kernel () =
  let t0 = P.now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> i * 7919 mod 10007)) in
  ignore (Sys.opaque_identity (Hashtbl.length h + List.length l) : int);
  P.now () -. t0

let kernel_times = ref []
let sample_host () = kernel_times := [| kernel () |] :: !kernel_times

let slowdown () =
  let k = fastest_tenth !kernel_times in
  sum k /. float (Array.length k) /. kernel_ref_s

let ms x = x *. 1000.
let us x = x *. 1e6
let ratio a b = if b = 0 then 0. else float a /. float b

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** the first failures, for the report *)
  mutable metrics : (string * float * string) list;
}

(* [fail_n r n] counts [n] failed operations under one message. *)
let fail_n r n fmt =
  Printf.ksprintf
    (fun msg ->
       r.failed <- r.failed + n;
       if List.length r.problems < 20 then r.problems <- msg :: r.problems)
    fmt

let fail r fmt = fail_n r 1 fmt

let metric r name value unit = r.metrics <- (name, value, unit) :: r.metrics

(* A timing metric at reference host speed, with its raw value shown. *)
let timed_metric r name ~raw ~slowdown ~rate unit =
  let v = if rate then raw *. slowdown else raw /. slowdown in
  Printf.printf "  (raw %-23s %14.4f %s)\n" name raw unit;
  metric r name v unit

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~workload r ~correct =
  let ms = List.rev r.metrics in
  Printf.printf "\n%s: %d attempted, %d failed, correct=%b\n" workload
    r.attempted r.failed correct;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) (List.rev r.problems);
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.4f %s\n" n v u) ms;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          ms))

(* ---------------------------------------------------------------- *)
(* Files                                                            *)
(* ---------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir =
  let k = ref 0 in
  fun work ->
    incr k;
    let d = Filename.concat work (Printf.sprintf "store-%03d" !k) in
    rm_rf d;
    d

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.)
    | _ -> go ()
  in
  go ()

(* CPU time the hypervisor gave to other guests while this one wanted
   to run ("steal"), in clock ticks summed over every CPU, from the
   first line of /proc/stat; 0 where that is not available. *)
let steal_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
      Option.value ~default:0. (float_of_string_opt steal)
    | _ | (exception End_of_file) -> 0.

(* Before each serve-open round the run waits, for at most
   [quiet_wait_share] of --seconds in all, for a second in which the
   host stole at most [quiet_ticks] ticks.  Spells of heavy steal last
   from seconds to minutes; a round started in one measures the other
   guests, not the program. *)
let quiet_ticks = 2.
let quiet_wait_share = 1.0

let await_quiet_host ~budget =
  let rec go () =
    let t0 = now () and s0 = steal_ticks () in
    Unix.sleepf 1.;
    let waited = now () -. t0 in
    budget := !budget -. waited;
    if steal_ticks () -. s0 > quiet_ticks && !budget > 0. then go ()
  in
  go ()

(* ---------------------------------------------------------------- *)
(* Shared measurement pieces                                        *)
(* ---------------------------------------------------------------- *)

(* Conditions matched against ground truth, summed over documents. *)
let score_doc counts (d : Docs.doc) (e : E.extraction) =
  Metrics.add counts (Metrics.count ~truth:d.Docs.truth ~extracted:(E.conditions e))

let outcome_ok r ~name (c : P.crawled) =
  match c.P.bytes with
  | None -> fail r "%s: extraction failed" name; None
  | bytes -> bytes

let is_complete (e : E.extraction) = e.E.outcome = Budget.Complete

(* In-process set-up: a fresh store opened, the grammar pack compiled
   and its first use (arena allocation) on one small fixed form. *)
let setup_inproc ~work =
  let dir = fresh_dir work in
  let t0 = now () in
  let store = Store.open_ dir in
  let pack = Engine.compile ~name:"std" ~version:"1" Wqi_stdgrammar.Std.grammar in
  ignore (E.run (E.Config.with_compiled pack E.Config.default) (E.Html Docs.warmup) : E.extraction);
  let t = now () -. t0 in
  Store.close store;
  rm_rf dir;
  t

(* Re-open a closed store and read every [(name, key, bytes)] back. *)
let check_readback r dir entries =
  let store = Store.open_ dir in
  Array.iter
    (fun (name, key, bytes) ->
       match Store.find store key with
       | Some b when String.equal b bytes -> ()
       | _ -> fail r "%s: store readback differs" name)
    entries;
  Store.close store

(* A closed-loop pass over [docs] into a fresh store: the crawl path,
   one document at a time.  Records each document's latency, checks its
   bytes against [expect] (when given) and the store readback. *)
let crawl_pass r ~work ~docs ~expect ~on_doc =
  let dir = fresh_dir work in
  let store = Store.open_ dir in
  let out = Array.make (Array.length docs) None in
  let lat = Array.make (Array.length docs) 0. in
  Array.iteri
    (fun i (d : Docs.doc) ->
       let t0 = now () in
       let c = P.crawl store ~name:d.Docs.id d.Docs.html in
       lat.(i) <- now () -. t0;
       r.attempted <- r.attempted + 1;
       on_doc i d c;
       match outcome_ok r ~name:d.Docs.id c with
       | None -> ()
       | Some bytes ->
         (match expect with
          | Some ex when not (String.equal ex.(i) bytes) ->
            fail r "%s: bytes differ from the first pass" d.Docs.id
          | _ -> ());
         out.(i) <- Some (d.Docs.id, c.P.key, bytes))
    docs;
  Store.close store;
  check_readback r dir (Array.of_list (List.filter_map Fun.id (Array.to_list out)));
  rm_rf dir;
  (Array.map (function Some (_, _, b) -> b | None -> "") out, lat)

(* Seeded Poisson arrival offsets over [duration] seconds. *)
let arrivals ~seed ~tag ~rate ~duration =
  let g = Prng.create (Int64.of_int ((seed * 1_000_003) + tag)) in
  let rec go t acc =
    let t = t -. (log (1. -. Prng.float g 1.) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type point_summary = {
  rate : float;
  p50 : float;
  p99 : float;
  n_ok : int;
  n_failed : int;
  backlog : int;
  meets : bool;
}

(* [lat] holds one entry per request in schedule order, [nan] for a
   failed one.  With [~windows:true] (real-time points) latency
   percentiles are taken per window of [window] consecutive requests,
   and the point reports the lower decile over its windows.  On a
   shared host a vCPU can stall for tens of milliseconds, or run slower
   for spells of seconds; such a spell should move some windows, not
   the point.  Failures and a growing backlog still fail the point
   whole. *)
let window = 250

let summarize_point ~windows ~slo_s ~rate ~lat ~n_failed ~backlog =
  let n = Array.length lat in
  let windows =
    if (not windows) || n < 2 * window then [| lat |]
    else
      Array.init (n / window) (fun k ->
          Array.sub lat (k * window)
            (if k = (n / window) - 1 then n - (k * window) else window))
  in
  (* [Float.compare] sorts the failures' [nan]s first; drop them. *)
  let ok w =
    let s = sorted w in
    let k = ref 0 in
    while !k < Array.length s && Float.is_nan s.(!k) do incr k done;
    Array.sub s !k (Array.length s - !k)
  in
  let per_window = Array.map ok windows in
  let quiet p = pct 0.1 (Array.map (pct_sorted p) per_window) in
  let p50 = quiet 0.5 and p99 = quiet 0.99 in
  { rate;
    p50;
    p99;
    n_ok = Array.fold_left (fun acc w -> acc + Array.length w) 0 per_window;
    n_failed;
    backlog;
    meets =
      n_failed = 0 && n > 0 && p99 <= slo_s
      && float backlog <= 2. +. (rate *. slo_s) }

(* Lindley's recursion over [replay_arrivals] Poisson arrivals at
   [rate], each with a service time drawn from [service]: an arrival
   starts when it is due or when the worker frees up. *)
let replay_arrivals = 100_000

let replay ~slo_s ~seed ~tag ~rate service =
  let g = Prng.create (Int64.of_int ((seed * 1_000_003) + tag)) in
  let m = Array.length service in
  let lat = Array.make replay_arrivals 0. in
  let starts = Array.make replay_arrivals 0. in
  let t = ref 0. and free = ref 0. in
  for i = 0 to replay_arrivals - 1 do
    t := !t -. (log (1. -. Prng.float g 1.) /. rate);
    let start = Float.max !t !free in
    free := start +. service.(Prng.int g m);
    starts.(i) <- start;
    lat.(i) <- !free -. !t
  done;
  let backlog = Array.fold_left (fun acc s -> if s > !t then acc + 1 else acc) 0 starts in
  summarize_point ~windows:false ~slo_s ~rate ~lat ~n_failed:0 ~backlog

let report_points points =
  List.iter
    (fun p ->
       Printf.printf "  rate %7.1f/s: ok %5d failed %d p50 %.3f ms p99 %.3f ms backlog %d %s\n"
         p.rate p.n_ok p.n_failed (ms p.p50) (ms p.p99) p.backlog
         (if p.meets then "meets SLO" else "misses SLO"))
    points

(* The highest rate meeting the SLO. *)
let best_rate points =
  List.fold_left (fun acc p -> if p.meets then Float.max acc p.rate else acc) 0. points

(* The end-to-end latency metrics, from the reference point and the sweep. *)
let rate_metrics r ~ref_point points =
  metric r "req_p50_ms" (ms ref_point.p50) "ms";
  metric r "req_p99_ms" (ms ref_point.p99) "ms";
  metric r "max_rps_at_slo" (best_rate points) "1/s"

(* ---------------------------------------------------------------- *)
(* In-process workloads: ingest-cold and parse-adversarial          *)
(* ---------------------------------------------------------------- *)

type inproc = {
  docs : Docs.doc array;   (** the timed set: every pass runs all of it *)
  accuracy : Docs.doc array;  (** the set P and R are scored on *)
  rates : float list;      (** open-loop sweep, ascending *)
  slo_s : float;           (** p99 latency limit for max_rps_at_slo *)
  reference : float;       (** the rate req_p50/p99 are read at *)
}

let inproc_e2e r ~seed ~seconds ~work (w : inproc) =
  let counts = ref Metrics.zero in
  let complete = ref 0 and seen = ref 0 in
  let on_doc _ _ (c : P.crawled) =
    incr seen;
    if is_complete c.P.extraction then incr complete
  in
  Array.iter
    (fun (d : Docs.doc) ->
       r.attempted <- r.attempted + 1;
       let e = E.run P.config (E.Html d.Docs.html) in
       (match e.E.outcome with
        | Budget.Failed _ -> fail r "%s: extraction failed" d.Docs.id
        | _ -> ());
       counts := score_doc !counts d e)
    w.accuracy;
  (* Closed loop: whole passes over the documents for the whole time,
     each into a fresh store, with one set-up measured between passes
     so that set-up and passes sample the same spells of host load. *)
  let t_end = now () +. seconds in
  let expect, first =
    crawl_pass r ~work ~docs:w.docs ~expect:None ~on_doc
  in
  let passes = ref [ first ] and setups = ref [] in
  while now () < t_end || List.length !setups < 5 do
    sample_host ();
    setups := setup_inproc ~work :: !setups;
    let _, lat =
      crawl_pass r ~work ~docs:w.docs ~expect:(Some expect) ~on_doc
    in
    passes := lat :: !passes
  done;
  (* Read before the replays below, whose arrays are the benchmark's. *)
  let rss = peak_rss_mb "self" in
  let slowdown = slowdown () in
  Printf.printf "  host slowdown %.4f\n" slowdown;
  (* Service times at reference host speed. *)
  let service = Array.map (fun t -> t /. slowdown) (fastest_tenth (List.rev !passes)) in
  (* Open loop, replayed: those service times, drawn at random, fed
     through one FIFO worker on each rate's seeded Poisson schedule.
     The worker is single-threaded and in-process, so a document's
     latency from arrival to store put is its wait plus its own service
     time. *)
  let capacity = float (Array.length service) /. sum service in
  let points =
    List.mapi
      (fun tag rate ->
         (* Past the worker's capacity the backlog grows without bound. *)
         if rate >= capacity then
           { rate; p50 = nan; p99 = nan; n_ok = 0; n_failed = 0;
             backlog = replay_arrivals; meets = false }
         else replay ~slo_s:w.slo_s ~seed ~tag ~rate service)
      w.rates
  in
  let ref_point = replay ~slo_s:w.slo_s ~seed ~tag:99 ~rate:w.reference service in
  report_points (ref_point :: points);
  metric r "docs_per_s" capacity "1/s";
  metric r "doc_p50_ms" (ms (median service)) "ms";
  metric r "doc_p99_ms" (ms (pct 0.99 service)) "ms";
  rate_metrics r ~ref_point points;
  metric r "ok_ratio" (1. -. ratio r.failed r.attempted) "ratio";
  metric r "complete_ratio" (ratio !complete !seen) "ratio";
  metric r "cond_precision" (Metrics.precision !counts) "ratio";
  metric r "cond_recall" (Metrics.recall !counts) "ratio";
  metric r "setup_s" (median (Array.of_list !setups) /. slowdown) "s";
  metric r "peak_rss_mb" rss "MB"

(* ---------------------------------------------------------------- *)
(* Traced runs                                                      *)
(* ---------------------------------------------------------------- *)

let layer_index name =
  let rec go i = if P.layers.(i) = name then i else go (i + 1) in
  go 0

(* Staged passes over [docs]: a warm-up pass (arenas sized), then two
   traced passes whose deterministic counters must agree exactly, and
   whose bytes must equal Extractor.run's.  Then untraced crawl passes
   and traced passes alternate to price the tracing itself.  Reports
   the per-layer medians. *)
let traced_layers r ~seed ~seconds ~work ~workload (docs : Docs.doc array) =
  let reference =
    Array.map
      (fun (d : Docs.doc) ->
         E.export ~timings:false ~name:d.Docs.id (E.run P.config (E.Html d.Docs.html)))
      docs
  in
  let spans = P.spans () in
  let pass ?spans () =
    let dir = fresh_dir work in
    let store = Store.open_ dir in
    let out =
      Array.mapi
        (fun i (d : Docs.doc) ->
           let bytes, key, c = P.staged ?spans store ~doc:i ~name:d.Docs.id d.Docs.html in
           (bytes, key, c))
        docs
    in
    Store.close store;
    check_readback r dir
      (Array.mapi (fun i (bytes, key, _) -> (docs.(i).Docs.id, key, bytes)) out);
    rm_rf dir;
    Array.map (fun (_, _, c) -> c) out
  in
  ignore (pass () : P.counters array);
  let a = pass ~spans () in
  let b = pass ~spans () in
  Array.iteri
    (fun i (d : Docs.doc) ->
       r.attempted <- r.attempted + 1;
       let ca = a.(i) and cb = b.(i) in
       if ca <> cb then fail r "%s: deterministic counters drifted between passes" d.Docs.id;
       if Digest.string reference.(i) <> ca.P.digest then
         fail r "%s: staged export differs from Extractor.run" d.Docs.id)
    docs;
  (* Per-layer self times, per document, over both traced passes. *)
  let self = P.self_times spans in
  let by_layer = Array.make P.n_layers [] in
  for i = 0 to spans.P.n - 1 do
    let l = spans.P.layer.(i) in
    by_layer.(l) <- self.(i) :: by_layer.(l)
  done;
  let self_us name = us (median (Array.of_list by_layer.(layer_index name))) in
  let per_doc f = median (Array.map (fun c -> float (f c)) a) in
  let words name = per_doc (fun c -> int_of_float c.P.words.(layer_index name)) in
  P.write_spans spans
    (Filename.concat (Filename.dirname work)
       (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed));
  (* Tracing overhead: untraced crawl passes against traced staged
     passes, alternating, over the rest of the time. *)
  let untraced = ref 0. and traced = ref 0. in
  let t_end = now () +. seconds in
  let rounds = ref 0 in
  while !rounds < 2 || now () < t_end do
    incr rounds;
    let t0 = now () in
    ignore (crawl_pass r ~work ~docs ~expect:None ~on_doc:(fun _ _ _ -> ()));
    let t1 = now () in
    ignore (pass ~spans:(P.spans ()) ());
    let t2 = now () in
    untraced := !untraced +. (t1 -. t0);
    traced := !traced +. (t2 -. t1)
  done;
  let stat f = per_doc (fun c -> f c.P.stats) in
  metric r "html.self_us" (self_us "html") "us";
  metric r "html.minor_words" (words "html") "words";
  metric r "layout.self_us" (self_us "layout") "us";
  metric r "layout.minor_words" (words "layout") "words";
  metric r "layout.atoms" (per_doc (fun c -> c.P.atoms)) "count";
  metric r "token.self_us" (self_us "token") "us";
  metric r "token.minor_words" (words "token") "words";
  metric r "token.tokens" (per_doc (fun c -> c.P.tokens)) "count";
  metric r "parser.self_us" (self_us "parser") "us";
  metric r "parser.minor_words" (words "parser") "words";
  metric r "parser.instances_created" (stat (fun s -> s.Engine.created)) "count";
  metric r "parser.guards_tried" (stat (fun s -> s.Engine.guards_tried)) "count";
  metric r "parser.pruned" (stat (fun s -> s.Engine.pruned)) "count";
  metric r "parser.rolled_back" (stat (fun s -> s.Engine.rolled_back)) "count";
  let sum f = Array.fold_left (fun acc c -> acc + f c.P.stats) 0 a in
  metric r "parser.temporary_ratio"
    (ratio (sum (fun s -> s.Engine.temporary)) (sum (fun s -> s.Engine.created)))
    "ratio";
  metric r "model.merge_self_us" (self_us "model.merge") "us";
  metric r "model.merge_minor_words" (words "model.merge") "words";
  metric r "model.export_self_us" (self_us "model.export") "us";
  metric r "model.export_bytes" (per_doc (fun c -> c.P.export_bytes)) "bytes";
  metric r "quality.self_us" (self_us "quality") "us";
  metric r "store.key_self_us" (self_us "store.key") "us";
  metric r "store.find_self_us" (self_us "store.find") "us";
  metric r "store.put_self_us" (self_us "store.put") "us";
  metric r "bench.glue_self_us" (self_us "doc") "us";
  metric r "bench.trace_overhead_ratio" (!traced /. !untraced) "ratio"

(* Per-layer serve metrics that only serve-open measures. *)
let serve_layer_names =
  [ ("store.hit_ratio", "ratio"); ("serve.cache_hit_ratio", "ratio");
    ("serve.store_hit_ratio", "ratio"); ("serve.miss_ratio", "ratio");
    ("serve.shed", "count"); ("serve.queue_wait_ms", "ms");
    ("serve.service_ms", "ms"); ("loadgen.lag_ms", "ms");
    ("serve.stage_html_us", "us"); ("serve.stage_layout_us", "us");
    ("serve.stage_classify_us", "us"); ("serve.stage_parse_us", "us");
    ("serve.stage_merge_us", "us") ]

(* ---------------------------------------------------------------- *)
(* serve-open                                                       *)
(* ---------------------------------------------------------------- *)

(* The whole run is [serve_rounds] rounds; each restarts the server
   (cold LRU, warm store) and visits every sweep rate in ascending
   order, each after a block at the reference rate.  So every rate is
   sampled at several times of the run, and the reference rate, which
   gets [reference_share] of the time, at 36 times spread over it.  The
   reference point is read from the [quiet_share] of its blocks in
   which the host stole the least CPU time from the guest. *)
let serve_reference = 3000.
let serve_rates =
  [ 1000.; 2000.; 5000.; 6000.; 7000.; 7500.; 8000.; 8500.; 9000.; 9500.;
    10000.; 11000. ]
let serve_rounds = 3
let reference_share = 0.6
let quiet_share = 0.5
let spawns_per_round = 3
let n_popular = 48
let share_popular = 0.92
let share_store = 0.04

type server = { pid : int; port : int }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))

(* Spawn wqi_serve over [store]; returns it with the time from spawn to
   the first /healthz 200. *)
let spawn ~exe ~work ~store =
  let out = Filename.concat work "server.out" in
  let err = Filename.concat work "server.err" in
  (try Sys.remove out with Sys_error _ -> ());
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--port"; "0"; "--jobs"; "1"; "--store"; store |]
      devnull fd_out fd_err
  in
  List.iter Unix.close [ fd_out; fd_err; devnull ];
  let deadline = t0 +. 30. in
  let rec port () =
    if now () > deadline then failwith "wqi_serve did not print its port";
    let s = read_file out in
    match String.index_opt s '\n' with
    | Some nl ->
      let line = String.sub s 0 nl in
      let before = List.hd (String.split_on_char '(' line) in
      let i = String.rindex before ':' in
      int_of_string (String.trim (String.sub before (i + 1) (String.length before - i - 1)))
    | None -> Unix.sleepf 0.001; port ()
  in
  let port = port () in
  let rec healthy () =
    if now () > deadline then failwith "wqi_serve never became healthy";
    match Loadgen.simple ~port ~meth:"GET" ~path:"/healthz" "" with
    | Some (200, _) -> ()
    | _ | (exception Unix.Unix_error _) -> Unix.sleepf 0.001; healthy ()
  in
  healthy ();
  ({ pid; port }, now () -. t0)

(* SIGTERM and wait (bounded; SIGKILL after 20 s).  True on exit 0. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  wait ()

let live_server = ref None
let () = at_exit (fun () -> Option.iter (fun s -> ignore (stop s : bool)) !live_server)

type kind = Popular of int | Stored of int | Fresh of int

let serve_open r ~seed ~seconds ~trace ~work ~exe =
  let rates = List.concat_map (fun rate -> [ serve_reference; rate ]) serve_rates in
  let duration rate =
    (if rate = serve_reference then seconds *. reference_share
     else seconds *. (1. -. reference_share))
    /. float (serve_rounds * List.length serve_rates)
  in
  (* The whole schedule first: it fixes how many forms the run needs.
     A stored form is requested at most once per round (after that the
     LRU holds it; the next round's restart empties the LRU again); a
     fresh form is requested once in the whole run. *)
  let g = Prng.create (Int64.of_int ((seed * 31) + 7)) in
  let n_store = ref 0 and n_fresh = ref 0 in
  let schedules =
    List.init serve_rounds (fun round ->
        let stored_in_round = ref 0 in
        let sched =
          List.mapi
            (fun k rate ->
               let tag = (round * 100) + k in
               let offs = arrivals ~seed ~tag ~rate ~duration:(duration rate) in
               let kinds =
                 Array.map
                   (fun _ ->
                      let u = Prng.float g 1. in
                      if u < share_popular then Popular (Prng.int g n_popular)
                      else if u < share_popular +. share_store then begin
                        incr stored_in_round;
                        Stored (!stored_in_round - 1)
                      end
                      else (incr n_fresh; Fresh (!n_fresh - 1)))
                   offs
               in
               (rate, offs, kinds))
            rates
        in
        n_store := max !n_store !stored_in_round;
        sched)
  in
  let all = Docs.forms ~seed ~prefix:"serve" (n_popular + !n_store + !n_fresh) in
  let popular = Array.sub all 0 n_popular in
  let stored = Array.sub all n_popular !n_store in
  let fresh = Array.sub all (n_popular + !n_store) !n_fresh in
  let counts = ref Metrics.zero and complete = ref 0 and seen = ref 0 in
  let note d e =
    incr seen;
    if is_complete e then incr complete;
    counts := score_doc !counts d e
  in
  (* Time the host speed kernel between the documents of the set-up
     work below, about 40 times, so that the first round's schedule
     stretch already rests on many samples. *)
  let every = max 1 ((!n_store + n_popular + !n_fresh) / 40) in
  let k = ref 0 in
  let sample_every () = incr k; if !k mod every = 0 then sample_host () in
  (* Pre-populate the store through the crawl path. *)
  let store_dir = Filename.concat work "serve-store" in
  let store = Store.open_ store_dir in
  let expect_stored =
    Array.map
      (fun (d : Docs.doc) ->
         sample_every ();
         r.attempted <- r.attempted + 1;
         let c = P.crawl store ~name:d.Docs.id d.Docs.html in
         note d c.P.extraction;
         Option.value ~default:"" (outcome_ok r ~name:d.Docs.id c))
      stored
  in
  Store.close store;
  let expect_of (d : Docs.doc) =
    sample_every ();
    r.attempted <- r.attempted + 1;
    let e = E.run P.config (E.Html d.Docs.html) in
    note d e;
    match e.E.outcome with
    | Budget.Failed _ -> fail r "%s: extraction failed" d.Docs.id; ""
    | _ -> E.export ~timings:false ~name:d.Docs.id e
  in
  let expect_popular = Array.map expect_of popular in
  let expect_fresh = Array.map expect_of fresh in
  let requests docs expect =
    Array.mapi
      (fun i (d : Docs.doc) ->
         { Loadgen.wire =
             Loadgen.request_bytes ~meth:"POST" ~path:("/extract?name=" ^ d.Docs.id)
               d.Docs.html;
           expect = expect.(i) })
      docs
  in
  let req_popular = requests popular expect_popular in
  let req_stored = requests stored expect_stored in
  let req_fresh = requests fresh expect_fresh in
  let request = function
    | Popular i -> req_popular.(i)
    | Stored i -> req_stored.(i)
    | Fresh i -> req_fresh.(i)
  in
  (* The workload's in-process figures: crawl passes over a fixed set of
     its forms into scratch stores, two before each sweep point while
     the server idles, so they sample the whole run. *)
  let ingest_set = Array.sub stored 0 (min 150 !n_store) in
  let ingest_expect = Array.sub expect_stored 0 (Array.length ingest_set) in
  let passes = ref [] in
  let ingest_pass () =
    sample_host ();
    let _, lat =
      crawl_pass r ~work ~docs:ingest_set ~expect:(Some ingest_expect)
        ~on_doc:(fun _ _ _ -> ())
    in
    passes := lat :: !passes
  in
  let series m name = Option.value ~default:0. (List.assoc_opt name m) in
  let setups = ref [] and rss = ref [] in
  let wait_budget = ref (seconds *. quiet_wait_share) in
  (* One round: wait for a quiet host, spawn (set-up timed, several
     times; the last server is measured), warm the LRU with the popular
     forms, then every rate. *)
  let round sched =
    let budget0 = !wait_budget in
    await_quiet_host ~budget:wait_budget;
    Printf.printf "  round waited %.1f s for a quiet host\n" (budget0 -. !wait_budget);
    let s = ref None in
    for k = 1 to spawns_per_round do
      let srv, t = spawn ~exe ~work ~store:store_dir in
      setups := t :: !setups;
      if k < spawns_per_round then begin
        if not (stop srv) then fail r "wqi_serve did not exit 0 on SIGTERM"
      end
      else begin
        s := Some srv;
        live_server := Some srv
      end
    done;
    let s = Option.get !s in
    (* The round's schedule is stretched by the host slowdown over every
       kernel timing so far, so a slow spell of the host meets
       proportionally less load. *)
    let slow = slowdown () in
    Printf.printf "  round slowdown %.4f\n" slow;
    Array.iteri
      (fun i (d : Docs.doc) ->
         r.attempted <- r.attempted + 1;
         match
           Loadgen.simple ~port:s.port ~meth:"POST"
             ~path:("/extract?name=" ^ d.Docs.id) d.Docs.html
         with
         | Some (200, body) when String.equal body expect_popular.(i) -> ()
         | _ -> fail r "%s: warm-up response differs" d.Docs.id)
      popular;
    let points =
      List.map
        (fun (rate, offs, kinds) ->
           if trace then sample_host ()
           else if rate <> serve_reference then (ingest_pass (); ingest_pass ());
           let before = Loadgen.scrape ~port:s.port in
           let steal0 = steal_ticks () in
           let start = now () +. 0.005 in
           let p =
             Loadgen.run ~port:s.port ~conns:2 ~timeout_s:5.
               ~due:(Array.map (fun o -> start +. (o *. slow)) offs)
               (Array.map request kinds)
           in
           let steal = (steal_ticks () -. steal0) /. (now () -. start) in
           let after = Loadgen.scrape ~port:s.port in
           r.attempted <- r.attempted + p.Loadgen.sent;
           if p.Loadgen.failed > 0 then
             fail_n r p.Loadgen.failed "rate %.0f: %d requests failed or mismatched"
               rate p.Loadgen.failed;
           let delta name = series after name -. series before name in
           (rate, p, delta, steal))
        sched
    in
    rss := peak_rss_mb (string_of_int s.pid) :: !rss;
    live_server := None;
    if not (stop s) then fail r "wqi_serve did not exit 0 on SIGTERM";
    points
  in
  let rounds = List.map round schedules in
  rm_rf store_dir;
  (* Each rate's blocks over all rounds, in run order. *)
  let of_rate rate =
    List.concat_map
      (List.filter_map (fun (x, p, delta, steal) ->
           if x = rate then Some (p, delta, steal) else None))
      rounds
  in
  (* The reference point's quiet blocks: the [quiet_share] with the
     least steal per second, kept in run order.  Ties go to the even
     blocks first, so that with no steal at all the kept blocks still
     span the whole run. *)
  let quiet_blocks blocks =
    let n = List.length blocks in
    let keep =
      List.mapi (fun i (_, _, steal) -> ((steal, i mod 2, i), i)) blocks
      |> List.sort compare
      |> List.filteri (fun j _ -> j < max 1 (int_of_float (quiet_share *. float n)))
      |> List.map snd
    in
    List.filteri (fun i _ -> List.mem i keep) blocks
  in
  let steal_rates = List.map (fun (_, _, s) -> s) (of_rate serve_reference) in
  Printf.printf "  steal per s over reference blocks: median %.1f, quiet blocks' max %.1f\n"
    (median (Array.of_list steal_rates))
    (List.fold_left (fun acc (_, _, s) -> Float.max acc s) 0.
       (quiet_blocks (of_rate serve_reference)));
  (* Latencies are read at reference host speed: divided by the
     slowdown over every kernel timing of the run.  A block's backlog
     can be a stall at its very end, so a point's backlog is the median
     over its blocks. *)
  let slowdown = slowdown () in
  Printf.printf "  host slowdown %.4f\n" slowdown;
  let summary ~scale rate =
    let ps = of_rate rate in
    let ps = if rate = serve_reference then quiet_blocks ps else ps in
    summarize_point ~windows:true ~slo_s:0.010 ~rate
      ~lat:
        (Array.concat
           (List.map (fun (p, _, _) -> Array.map (fun l -> l /. scale) p.Loadgen.latencies) ps))
      ~n_failed:(List.fold_left (fun acc (p, _, _) -> acc + p.Loadgen.failed) 0 ps)
      ~backlog:
        (let b = Array.of_list (List.map (fun (p, _, _) -> float p.Loadgen.backlog) ps) in
         int_of_float (median b))
  in
  let summaries = List.map (summary ~scale:slowdown) (serve_reference :: serve_rates) in
  report_points summaries;
  if not trace then begin
    let raw_ref = summary ~scale:1. serve_reference in
    Printf.printf "  (raw %-23s %14.4f %s)\n" "req_p50_ms" (ms raw_ref.p50) "ms";
    Printf.printf "  (raw %-23s %14.4f %s)\n" "req_p99_ms" (ms raw_ref.p99) "ms";
    let lat = fastest_tenth (List.rev !passes) in
    let timed name raw unit = timed_metric r name ~raw ~slowdown ~rate:false unit in
    timed_metric r "docs_per_s" ~raw:(float (Array.length lat) /. sum lat) ~slowdown ~rate:true "1/s";
    timed "doc_p50_ms" (ms (median lat)) "ms";
    timed "doc_p99_ms" (ms (pct 0.99 lat)) "ms";
    (* Rates and latencies are already at reference host speed. *)
    rate_metrics r ~ref_point:(List.hd summaries) (List.tl summaries);
    metric r "ok_ratio" (1. -. ratio r.failed r.attempted) "ratio";
    metric r "complete_ratio" (ratio !complete !seen) "ratio";
    metric r "cond_precision" (Metrics.precision !counts) "ratio";
    metric r "cond_recall" (Metrics.recall !counts) "ratio";
    timed "setup_s" (median (Array.of_list !setups)) "s";
    metric r "peak_rss_mb" (median (Array.of_list !rss)) "MB"
  end
  else begin
    let traced_docs =
      Array.concat
        [ popular; Array.sub stored 0 (min 300 !n_store); Array.sub fresh 0 (min 300 !n_fresh) ]
    in
    traced_layers r ~seed ~seconds:(seconds *. 0.2) ~work ~workload:"serve-open" traced_docs;
    (* The serve layers at the reference rate, summed over rounds. *)
    let refs = of_rate serve_reference in
    let total f = List.fold_left (fun acc x -> acc +. f x) 0. refs in
    let delta name = total (fun (_, d, _) -> d name) in
    let sent = total (fun (p, _, _) -> float p.Loadgen.sent) in
    let disp k =
      total (fun (p, _, _) ->
          float (Option.value ~default:0 (List.assoc_opt k p.Loadgen.dispositions)))
    in
    let reqs = delta "wqi_request_seconds_count" in
    let service = if reqs > 0. then delta "wqi_request_seconds_sum" /. reqs else 0. in
    let stage st =
      let series what = Printf.sprintf "wqi_stage_seconds_%s{stage=\"%s\"}" what st in
      let c = delta (series "count") in
      if c > 0. then us (delta (series "sum") /. c) else 0.
    in
    let ref_lat =
      Array.concat (List.map (fun (p, _, _) -> p.Loadgen.latencies) refs)
      |> Array.to_list |> List.filter (fun x -> not (Float.is_nan x)) |> Array.of_list
    in
    let lags = Array.concat (List.map (fun (p, _, _) -> p.Loadgen.lags) refs) in
    let mean a = if Array.length a = 0 then 0. else sum a /. float (Array.length a) in
    let sh = delta "wqi_store_hits_total" and sm = delta "wqi_store_misses_total" in
    let values =
      [ ("store.hit_ratio", if sh +. sm > 0. then sh /. (sh +. sm) else 0.);
        ("serve.cache_hit_ratio", disp "hit" /. sent);
        ("serve.store_hit_ratio", disp "store" /. sent);
        ("serve.miss_ratio", disp "miss" /. sent);
        ("serve.shed", delta "wqi_shed_total");
        ("serve.queue_wait_ms", ms (Float.max 0. (mean ref_lat -. service)));
        ("serve.service_ms", ms service);
        ("loadgen.lag_ms", ms (pct 0.99 lags));
        ("serve.stage_html_us", stage "html");
        ("serve.stage_layout_us", stage "layout");
        ("serve.stage_classify_us", stage "classify");
        ("serve.stage_parse_us", stage "parse");
        ("serve.stage_merge_us", stage "merge") ]
    in
    (* The server's store hit ratio replaces the staged run's, whose
       probes always miss a fresh store. *)
    r.metrics <- List.filter (fun (n, _, _) -> n <> "store.hit_ratio") r.metrics;
    List.iter (fun (n, u) -> metric r n (List.assoc n values) u) serve_layer_names
  end

(* ---------------------------------------------------------------- *)
(* Workload table and entry point                                   *)
(* ---------------------------------------------------------------- *)

(* P and R are scored on 2,400 forms, so that they move little from seed
   to seed; 300 of them are timed, so that a pass is short. *)
let ingest_cold seed =
  let accuracy = Docs.forms ~seed ~prefix:"ingest" 2400 in
  { docs = Array.sub accuracy 0 300;
    accuracy;
    rates = List.init 31 (fun i -> 1000. +. (100. *. float i));
    slo_s = 0.010;
    reference = 1000. }

let parse_adversarial seed =
  let docs = Docs.ladders ~seed in
  { docs;
    accuracy = docs;
    rates = List.init 23 (fun i -> 300. +. (50. *. float i));
    slo_s = 0.025;
    reference = 300. }

let run_workload ~workload ~seed ~seconds ~trace ~work ~exe =
  let r = { attempted = 0; failed = 0; problems = []; metrics = [] } in
  let inproc w =
    if trace then begin
      traced_layers r ~seed ~seconds ~work ~workload w.docs;
      (* No server runs: the serve layers read 0, and the in-process
         store probe always misses its fresh store. *)
      List.iter (fun (n, u) -> metric r n 0. u) serve_layer_names
    end
    else inproc_e2e r ~seed ~seconds ~work w
  in
  (match workload with
   | "ingest-cold" -> inproc (ingest_cold seed)
   | "parse-adversarial" -> inproc (parse_adversarial seed)
   | "serve-open" -> serve_open r ~seed ~seconds ~trace ~work ~exe
   | w -> invalid_arg ("unknown workload " ^ w));
  r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "" and work = ref ".perfbench" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W ingest-cold | parse-adversarial | serve-open");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--server", Arg.Set_string exe, "PATH wqi_serve executable");
      ("--work-dir", Arg.Set_string work, "DIR scratch directory") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --server PATH";
  if not (List.mem !workload [ "ingest-cold"; "parse-adversarial"; "serve-open" ]) then begin
    prerr_endline "perfbench: --workload must be ingest-cold, parse-adversarial or serve-open";
    exit 2
  end;
  if !workload = "serve-open" && not (Sys.file_exists !exe) then begin
    prerr_endline "perfbench: --server must name the wqi_serve executable";
    exit 2
  end;
  let run_dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir run_dir 0o755;
  let r =
    Fun.protect
      ~finally:(fun () -> rm_rf run_dir)
      (fun () ->
         run_workload ~workload:!workload ~seed:!seed ~seconds:(float !seconds)
           ~trace:(!trace = 1) ~work:run_dir ~exe:!exe)
  in
  print_result ~workload:!workload r ~correct:(r.failed = 0)
