(* Grammar-as-data suite: the standard grammar, stated once as
   Algebra data (Std.decl), and the .wqg file format.  Three layers:

   - the parse golden: Std.grammar — and the grammar loaded back from
     examples/grammars/std.wqg — render golden/std_parse.txt byte for
     byte (every observable of the equivalence check, instance ids and
     hinted guard counts included, plus each production's hints);
   - round-trip: dump → parse → dump is byte-identical, and the
     committed std.wqg is exactly [Loader.dump Std.decl];
   - rejection: malformed grammar files fail to load with precise
     file:line:col diagnostics, never a late crash. *)

module G = Wqi_grammar
module Algebra = G.Algebra
module Loader = G.Loader
module Engine = Wqi_parser.Engine
module Std = Wqi_stdgrammar.Std
module Extractor = Wqi_core.Extractor

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let grammars_dir = "../examples/grammars"
let std_wqg = Filename.concat grammars_dir "std.wqg"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let instantiated decl =
  match Algebra.instantiate Std.env decl with
  | Ok g -> g
  | Error msgs -> Alcotest.failf "instantiate: %s" (String.concat "; " msgs)

let loaded path =
  match Loader.load ~env:Std.env path with
  | Ok decl -> decl
  | Error e -> Alcotest.failf "load %s: %s" path (Loader.error_to_string e)

(* --- the parse golden --- *)

let std_parse = "golden/std_parse.txt"

(* [grammar] must render the committed parse golden byte for byte.  The
   first differing line is reported on its own, so a failure names the
   production or corpus source that moved. *)
let check_parse_golden ctx grammar =
  let expected = read_file std_parse in
  let actual = Std_golden.render grammar in
  let rec first_diff i = function
    | e :: es, a :: as_ ->
      if e = a then first_diff (i + 1) (es, as_)
      else check_string (Printf.sprintf "%s: std_parse.txt line %d" ctx i) e a
    | _ -> ()
  in
  first_diff 1
    (String.split_on_char '\n' expected, String.split_on_char '\n' actual);
  check_string (ctx ^ ": std_parse.txt bytes") expected actual

(* Std.grammar is checked against the golden a line at a time, so a
   regression names every corpus source whose parse moved, not only the
   first: one case for the production lines and the file's shape (line
   count, final newline), then one case per corpus source.  Together the
   cases pin the file byte for byte. *)
let golden_lines = lazy (String.split_on_char '\n' (read_file std_parse))
let std_productions = Std.grammar.G.Grammar.productions
let golden_sources = Std_golden.corpus_sources ()

let golden_line i =
  match List.nth_opt (Lazy.force golden_lines) i with
  | Some line -> line
  | None -> Alcotest.failf "std_parse.txt has no line %d" (i + 1)

let test_std_golden_productions () =
  let lines = Lazy.force golden_lines in
  let n = List.length std_productions in
  Alcotest.(check int) "std_parse.txt lines"
    (n + List.length golden_sources + 1)
    (List.length lines);
  check_string "std_parse.txt ends with a newline" ""
    (List.nth lines (List.length lines - 1));
  List.iteri
    (fun i p ->
       check_string
         (Printf.sprintf "std_parse.txt line %d" (i + 1))
         (golden_line i) (Std_golden.production_line p))
    std_productions

let test_std_golden_source i (s : Wqi_corpus.Generator.source) () =
  let line = List.length std_productions + i in
  check_string
    (Printf.sprintf "std_parse.txt line %d" (line + 1))
    (golden_line line)
    (Std_golden.source_line Std.grammar s)

let test_loaded_golden () =
  (* The full loop the file format licenses: committed bytes → loader →
     interpreter → parser, byte-identical to the built-in grammar. *)
  check_parse_golden "std.wqg" (instantiated (loaded std_wqg))

(* --- round-trips and the committed golden --- *)

let test_dump_parse_dump () =
  let dumped = Loader.dump Std.decl in
  match Loader.parse ~env:Std.env ~file:"<dump>" dumped with
  | Error e -> Alcotest.failf "reparse: %s" (Loader.error_to_string e)
  | Ok decl -> check_string "dump/parse/dump" dumped (Loader.dump decl)

let test_committed_std_is_golden () =
  (* examples/grammars/std.wqg is `wqi_grammar_dump --export`, committed;
     regenerate it whenever Std.decl changes. *)
  check_string "std.wqg bytes" (Loader.dump Std.decl) (read_file std_wqg)

let test_variant_roundtrips () =
  List.iter
    (fun file ->
       let path = Filename.concat grammars_dir file in
       let decl = loaded path in
       let dumped = Loader.dump decl in
       (match Loader.parse ~env:Std.env ~file dumped with
        | Error e ->
          Alcotest.failf "%s redump: %s" file (Loader.error_to_string e)
        | Ok decl' ->
          check_string (file ^ ": canonical") dumped (Loader.dump decl'));
       ignore (instantiated decl))
    [ "airline.wqg"; "realestate.wqg" ]

let test_variants_extract () =
  (* Variants are live grammars, not inert data: an airline-ish form
     must yield conditions under the airline grammar through the full
     extractor stack, selected via Config.with_compiled. *)
  let html =
    "<form><table>\
     <tr><td>Departure city:</td><td><input type=\"text\" name=\"from\"></td></tr>\
     <tr><td>Passengers:</td><td><select name=\"n\">\
     <option>1</option><option>2</option><option>3</option></select></td></tr>\
     </table></form>"
  in
  List.iter
    (fun (file, name) ->
       let path = Filename.concat grammars_dir file in
       let decl = loaded path in
       check_string (file ^ ": name") name decl.Algebra.g_name;
       let pack =
         Engine.compile ~name:decl.Algebra.g_name ~version:decl.Algebra.g_version
           (instantiated decl)
       in
       let config = Extractor.Config.(default |> with_compiled pack) in
       let e = Extractor.run config (Extractor.Html html) in
       check_bool (file ^ ": outcome complete") true
         (e.Extractor.outcome = Wqi_budget.Budget.Complete);
       check_bool (file ^ ": found conditions") true
         (List.length (Extractor.conditions e) >= 2))
    [ ("airline.wqg", "airline"); ("realestate.wqg", "realestate") ]

(* --- rejection: precise diagnostics --- *)

let header =
  "(wqi-grammar (format 1) (name t) (version 1) (terminals text textbox) \
   (start QI))\n"

let expect_error ctx text expected =
  match Loader.parse ~env:Std.env ~file:"bad.wqg" text with
  | Ok _ -> Alcotest.failf "%s: expected a load error" ctx
  | Error e -> check_string ctx expected (Loader.error_to_string e)

let test_reject_unknown_symbol () =
  expect_error "unknown symbol"
    (header
     ^ "(production P-QI (head QI) (components Nope) (build (lift 0)))\n")
    "bad.wqg:2:40: unknown symbol \"Nope\""

let test_reject_arity_mismatch () =
  expect_error "slot out of arity"
    (header
     ^ "(production P-QI (head QI) (components text) (guard (text-class \
        plausible-attribute token 2)))\n")
    "bad.wqg:2:91: slot 2 out of range (production has 1 component)"

let test_reject_cycle () =
  expect_error "cyclic productions"
    (header
     ^ "(production P-A (head A) (components B) (build (lift 0)))\n"
     ^ "(production P-B (head B) (components A) (build (lift 0)))\n"
     ^ "(production P-QI (head QI) (components A) (build (lift 0)))\n")
    "bad.wqg:3:2: production P-B: cyclic productions: A -> B -> A"

let test_reject_malformed_predicate () =
  expect_error "malformed predicate"
    (header
     ^ "(production P-QI (head QI) (components text text) (guard (frob 0 1)))\n")
    "bad.wqg:2:58: unknown predicate \"frob\""

let test_reject_unknown_text_class () =
  expect_error "unknown text class"
    (header
     ^ "(production P-QI (head QI) (components text) (guard (text-class \
        mystery token 0)))\n")
    "bad.wqg:2:65: unknown text class \"mystery\""

let test_reject_duplicate_production () =
  expect_error "duplicate production name"
    (header
     ^ "(production P-QI (head QI) (components text))\n"
     ^ "(production P-QI (head QI) (components textbox))\n")
    "bad.wqg:3:2: duplicate production name \"P-QI\""

let test_reject_non_head_start () =
  expect_error "start is not a head"
    (header ^ "(production P-A (head A) (components text))\n")
    "bad.wqg:1:78: start symbol \"QI\" is not the head of any production"

let test_reject_bad_format () =
  expect_error "unsupported format"
    "(wqi-grammar (format 2) (name t) (version 1) (terminals text) (start \
     QI))\n"
    "bad.wqg:1:22: unsupported grammar format 2"

let test_reject_self_relation () =
  expect_error "slot related to itself"
    (header
     ^ "(production P-QI (head QI) (components text textbox) (guard (left-of \
        60 1 1)))\n")
    "bad.wqg:2:61: left-of relates slot 1 to itself"

let suite =
  [ ("Std.grammar matches the parse golden: productions", `Quick,
     test_std_golden_productions) ]
  @ List.mapi
      (fun i (s : Wqi_corpus.Generator.source) ->
         ( "Std.grammar matches the parse golden: " ^ s.Wqi_corpus.Generator.id,
           `Quick,
           test_std_golden_source i s ))
      golden_sources
  @ [ ("loaded std.wqg matches the parse golden", `Quick, test_loaded_golden);
      ("dump/parse/dump is byte-identical", `Quick, test_dump_parse_dump);
      ("committed std.wqg matches --export", `Quick,
       test_committed_std_is_golden);
      ("variant files are canonical and instantiate", `Quick,
       test_variant_roundtrips);
      ("variant grammars drive the extractor", `Quick, test_variants_extract);
      ("reject: unknown symbol", `Quick, test_reject_unknown_symbol);
      ("reject: slot out of arity", `Quick, test_reject_arity_mismatch);
      ("reject: cyclic productions", `Quick, test_reject_cycle);
      ("reject: malformed predicate", `Quick, test_reject_malformed_predicate);
      ("reject: unknown text class", `Quick, test_reject_unknown_text_class);
      ("reject: duplicate production name", `Quick,
       test_reject_duplicate_production);
      ("reject: start not a head", `Quick, test_reject_non_head_start);
      ("reject: unsupported format", `Quick, test_reject_bad_format);
      ("reject: self-relation", `Quick, test_reject_self_relation) ]
