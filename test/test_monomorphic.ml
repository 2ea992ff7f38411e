(* Equivalence of the per-document helpers with their generic
   definitions.  The helpers on the path from HTML to the store avoid
   polymorphic compare, [Format] and per-byte closures; each reference
   below is the generic definition they replaced, written out here, and
   the properties check that the two agree on every input, including
   the corner cases the rewrites have to get right. *)

module Q = QCheck
module Condition = Wqi_model.Condition
module Token = Wqi_token.Token
module Lexicon = Wqi_stdgrammar.Lexicon
module Key = Wqi_store.Key
module Crc32 = Wqi_store.Store.Crc32
module Geometry = Wqi_layout.Geometry
module Layout = Wqi_layout.Engine
module Html_parser = Wqi_html.Parser
module Engine = Wqi_parser.Engine
module Dispatch = Wqi_parser.Dispatch
module G = Wqi_grammar

let rand () = Random.State.make [| 0x5eed |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(rand ()) t

(* Strings over bytes that stress escaping and layout: quotes,
   backslashes, control characters, UTF-8 sequences, spaces. *)
let tricky_pieces =
  [| "a"; "Z"; " "; "\""; "\\"; "\n"; "\r"; "\t"; "é"; "日本"; "\x00";
     "\x7f"; "\xff"; "'"; ","; "{"; "}"; "["; "]"; ";"; "word"; "0"; "42";
     "%"; "@"; "@["; "@]"; "@,"; "@ "; "@." |]

let tricky_gen max_pieces =
  Q.Gen.(
    map (String.concat "")
      (list_size (int_bound max_pieces) (oneofa tricky_pieces)))

let tricky max_pieces = Q.make ~print:String.escaped (tricky_gen max_pieces)

(* --- Condition.to_string ------------------------------------------ *)

let rec domain_gen depth =
  Q.Gen.(
    frequency
      ([ (2, return Condition.Text); (1, return Condition.Datetime);
         (4, map (fun vs -> Condition.Enumeration vs)
               (list_size (int_bound 30) (tricky_gen 12))) ]
       @ if depth = 0 then []
       else [ (2, map (fun d -> Condition.Range d) (domain_gen (depth - 1))) ]))

let condition_gen =
  Q.Gen.(
    map3
      (fun attribute operators domain ->
         Condition.make ~attribute ~operators domain)
      (tricky_gen 40)
      (list_size (int_bound 4) (tricky_gen 6))
      (domain_gen 3))

let condition = Q.make ~print:(fun c -> String.escaped (Condition.to_string c)) condition_gen

let prop_condition_to_string =
  Q.Test.make ~name:"Condition.to_string = Fmt.str %a Condition.pp"
    ~count:2000 condition (fun c ->
        String.equal (Condition.to_string c) (Fmt.str "%a" Condition.pp c))

(* Hand-picked corners: empty parts, nesting, and enumerations long
   enough that [Format] breaks lines before a quoted value. *)
let test_condition_corners () =
  let values n = List.init n (fun i -> Printf.sprintf "value number %d" i) in
  List.iter
    (fun c ->
       Alcotest.(check string) "to_string" (Fmt.str "%a" Condition.pp c)
         (Condition.to_string c))
    [ Condition.make ~attribute:"" Condition.Text;
      Condition.make ~attribute:"A" ~operators:[ ""; "" ]
        (Condition.Enumeration [ ""; "" ]);
      Condition.make ~attribute:"Q \"x\" \\ y" ~operators:[ "é" ]
        (Condition.Range (Condition.Range (Condition.Enumeration [])));
      Condition.make ~attribute:(String.make 80 'a') ~operators:[ "contains" ]
        (Condition.Range (Condition.Enumeration (values 12)));
      Condition.make ~attribute:"Make" (Condition.Enumeration (values 40));
      Condition.make ~attribute:"Line\nbreak" ~operators:[ String.make 70 'o' ]
        (Condition.Enumeration (values 3)) ]

(* --- Token.describe ----------------------------------------------- *)

let describe_reference (t : Token.t) =
  match t.kind with
  | Token.Text -> Fmt.str "text %S" t.sval
  | Token.Selection -> Fmt.str "selection list %S" t.name
  | kind ->
    if t.sval <> "" then Fmt.str "%s %S" (Token.kind_name kind) t.sval
    else if t.name <> "" then Fmt.str "%s %S" (Token.kind_name kind) t.name
    else Token.kind_name kind

let token_gen =
  Q.Gen.(
    map3
      (fun kind sval name ->
         { Token.id = 0; kind; box = Geometry.origin; sval; name;
           options = []; value = ""; checked = false; multiple = false })
      (oneofl
         [ Token.Text; Token.Textbox; Token.Selection; Token.Radio;
           Token.Checkbox; Token.Button; Token.Image ])
      (frequency [ (1, return ""); (3, tricky_gen 20) ])
      (frequency [ (1, return ""); (3, tricky_gen 20) ]))

let prop_describe =
  Q.Test.make ~name:"Token.describe = its Fmt definition" ~count:2000
    (Q.make ~print:describe_reference token_gen) (fun t ->
        String.equal (Token.describe t) (describe_reference t))

(* --- Lexicon.as_int / is_int -------------------------------------- *)

let int_pieces =
  [| "0"; "1"; "7"; "9"; "+"; "-"; "_"; "x"; "X"; "b"; "o"; "u"; "a"; "f";
     " "; "\t"; "\n"; "\r"; "\012"; "."; "e" |]

let int_string_corners =
  [ "0x1F"; "0b1"; "-"; "+"; "+7"; "_1"; "1_000"; " 12 "; ""; "   "; "0o17";
    "0u5"; "-0x10"; "12a"; "a12"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "99999999999999999999999"; "\t-3\n"; "1 2"; "٣" ]

let int_string_gen =
  Q.Gen.(
    frequency
      [ (1, oneofl int_string_corners);
        (4, map (String.concat "")
              (list_size (int_bound 8) (oneofa int_pieces))) ])

let prop_as_int =
  Q.Test.make ~name:"Lexicon.as_int/is_int = int_of_string_opt (trim s)"
    ~count:3000 (Q.make ~print:String.escaped int_string_gen) (fun s ->
        let expected = int_of_string_opt (String.trim s) in
        Option.equal Int.equal (Lexicon.as_int s) expected
        && Bool.equal (Lexicon.is_int s) (Option.is_some expected))

let test_as_int_corners () =
  List.iter
    (fun s ->
       Alcotest.(check (option int)) (String.escaped s)
         (int_of_string_opt (String.trim s)) (Lexicon.as_int s))
    int_string_corners

(* --- Lexicon guards with rewritten internals ---------------------- *)

(* The word-count and letter tests of [plausible_attribute], as they
   were written over [String.split_on_char] and [String.exists]. *)
let plausible_attribute_reference s =
  let s = String.trim s in
  let n = String.length s in
  let words =
    String.split_on_char ' ' s |> List.filter (fun w -> w <> "") |> List.length
  in
  n > 0 && n <= 60 && words <= 6
  && int_of_string_opt s = None
  && String.exists (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) s
  && not (n > 1 && s.[n - 1] = '!')

let prop_plausible_attribute =
  Q.Test.make ~name:"Lexicon.plausible_attribute = its list definition"
    ~count:2000 (tricky 25) (fun s ->
        Bool.equal (Lexicon.plausible_attribute s)
          (plausible_attribute_reference s))

let plausible_date_combo_reference option_lists =
  match List.map Lexicon.date_component option_lists with
  | [ a; b; c ] ->
    let sorted = List.sort compare [ a; b; c ] in
    sorted = List.sort compare [ `Month; `Day; `Year ]
    || sorted = List.sort compare [ `Day; `Day; `Year ]
  | [ a; b ] ->
    (match List.sort compare [ a; b ] with
     | [ `Day; `Month ] | [ `Month; `Year ] | [ `Day; `Year ]
     | [ `Time; `Time ] ->
       true
     | _ -> false)
  | _ -> false

(* Option lists that classify as each date component, and noise. *)
let option_list_gen =
  let nums lo hi = List.init (hi - lo + 1) (fun i -> string_of_int (lo + i)) in
  Q.Gen.oneofl
    [ [ "January"; "February"; "March" ]; [ "Jan"; "Feb"; "Mar"; "Apr" ];
      nums 1 12; nums 1 31; nums 1990 2010; nums 0 59; [ "am"; "pm" ];
      [ "Month"; "1"; "2" ]; [ "red"; "green" ]; []; [ "--" ]; [ "5" ];
      nums 1 9 ]

let prop_plausible_date_combo =
  Q.Test.make ~name:"Lexicon.plausible_date_combo = its sort definition"
    ~count:2000
    (Q.make Q.Gen.(list_size (int_bound 4) option_list_gen))
    (fun lists ->
       Bool.equal (Lexicon.plausible_date_combo lists)
         (plausible_date_combo_reference lists))

(* --- Key.make and Crc32.digest ------------------------------------ *)

let fold_reference h s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    h s

let normalize_reference html =
  let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false in
  let n = String.length html in
  let lo = ref 0 in
  while !lo < n && is_space html.[!lo] do incr lo done;
  let hi = ref (n - 1) in
  while !hi >= !lo && is_space html.[!hi] do decr hi done;
  let b = Buffer.create n in
  let i = ref !lo in
  while !i <= !hi do
    (match html.[!i] with
     | '\r' ->
       Buffer.add_char b '\n';
       if !i + 1 <= !hi && html.[!i + 1] = '\n' then incr i
     | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let html_pieces =
  [| "<form>"; "a"; " "; "\t"; "\n"; "\r"; "\r\n"; "\n\r"; "\012"; "é"; "x";
     "</form>"; "\x00" |]

let html_gen =
  Q.Gen.(
    frequency
      [ (1, oneofl [ ""; " "; "\r"; "\r\n"; "\n\r\n"; " \t\r\n\012 "; "a\r";
                     "\ra"; "a\r\r\nb" ]);
        (6, map (String.concat "")
              (list_size (int_bound 20) (oneofa html_pieces))) ])

let prop_key_make =
  Q.Test.make ~name:"Key.make = fold over normalize" ~count:3000
    (Q.make ~print:Q.Print.(pair String.escaped String.escaped)
       (Q.Gen.pair html_gen (tricky_gen 5)))
    (fun (html, spec) ->
       let normalized = normalize_reference html in
       let k = Key.make ~html ~spec in
       Int64.equal k.Key.hash
         (fold_reference
            (fold_reference (fold_reference 0xcbf29ce484222325L spec) "\x00")
            normalized)
       && k.Key.len = String.length normalized
       && String.equal k.Key.spec spec
       && Int64.equal (Key.fold 42L html) (fold_reference 42L html))

let crc_reference s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

let prop_crc32 =
  Q.Test.make ~name:"Crc32.digest = its String.iter definition" ~count:1000
    (tricky 40) (fun s -> Crc32.digest s = crc_reference s)

let test_crc32_vector () =
  Alcotest.(check int) "CRC-32 check value" 0xcbf43926 (Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.digest "")

(* --- HTML and layout element classes ------------------------------ *)

let void_elements =
  [ "area"; "base"; "br"; "col"; "embed"; "hr"; "img"; "input"; "link";
    "meta"; "param"; "source"; "track"; "wbr" ]

let block_elements =
  [ "address"; "article"; "aside"; "blockquote"; "center"; "dd"; "dir";
    "div"; "dl"; "dt"; "fieldset"; "figure"; "footer"; "form"; "h1"; "h2";
    "h3"; "h4"; "h5"; "h6"; "header"; "hr"; "li"; "main"; "menu"; "nav";
    "ol"; "p"; "pre"; "section"; "table"; "ul"; "caption"; "legend";
    "html"; "body" ]

let skipped_elements = [ "head"; "script"; "style"; "title"; "#root" ]

(* Every listed name, near misses of each, and other tag names. *)
let names_to_try =
  let listed = void_elements @ block_elements @ skipped_elements in
  listed
  @ List.concat_map
      (fun n ->
         [ String.uppercase_ascii n; n ^ "x"; "x" ^ n;
           String.sub n 0 (String.length n - 1) ])
      listed
  @ [ ""; "span"; "td"; "tr"; "th"; "select"; "option"; "textarea"; "a";
      "b"; "font"; "label"; "#text" ]

let test_element_classes () =
  List.iter
    (fun n ->
       Alcotest.(check bool) ("is_void " ^ n) (List.mem n void_elements)
         (Html_parser.is_void n);
       Alcotest.(check bool) ("is_block " ^ n) (List.mem n block_elements)
         (Layout.is_block n);
       Alcotest.(check bool) ("is_skipped " ^ n) (List.mem n skipped_elements)
         (Layout.is_skipped n))
    names_to_try

(* --- Reading order ------------------------------------------------ *)

let box_gen =
  Q.Gen.(
    map (fun (x1, y1, w, h) ->
        Geometry.make ~x1 ~y1 ~x2:(x1 + w) ~y2:(y1 + h))
      (quad (int_range (-5) 60) (int_range (-5) 60) (int_bound 30)
         (int_bound 30)))

let compare_reading_order_reference (a : Geometry.box) (b : Geometry.box) =
  if Geometry.same_row a b then compare (a.x1, a.y1) (b.x1, b.y1)
  else compare (a.y1, a.x1) (b.y1, b.x1)

let prop_reading_order =
  Q.Test.make ~name:"compare_reading_order = its tuple compare" ~count:3000
    (Q.make
       ~print:(fun (a, b) -> Fmt.str "%a %a" Geometry.pp a Geometry.pp b)
       (Q.Gen.pair box_gen box_gen))
    (fun (a, b) ->
       Geometry.compare_reading_order a b = compare_reading_order_reference a b)

(* --- Parse loop tables -------------------------------------------- *)

(* The id-resolved schedule and preference tables say what the symbol
   lists and the per-symbol preference filter said. *)
let test_parse_tables () =
  let g = Wqi_stdgrammar.Std.grammar in
  let pack = Engine.compile g in
  let schedule = G.Schedule.build g in
  let t = pack.Engine.tables in
  let names sids =
    List.map (fun sid -> G.Symbol.name t.Dispatch.syms.(sid)) (Array.to_list sids)
  in
  let pref_names prefs =
    List.map (fun (p : Dispatch.pref) -> p.Dispatch.pref.G.Preference.name)
      (Array.to_list prefs)
  in
  Alcotest.(check (list string)) "schedule order"
    (List.map G.Symbol.name schedule.G.Schedule.order)
    (names pack.Engine.order);
  Alcotest.(check (list string)) "relaxed"
    (List.map
       (fun (r : G.Preference.t) -> r.name)
       schedule.G.Schedule.relaxed)
    (pref_names pack.Engine.relaxed);
  Alcotest.(check (list string)) "all preferences"
    (List.map (fun (r : G.Preference.t) -> r.name) g.G.Grammar.preferences)
    (pref_names pack.Engine.all_prefs);
  Array.iteri
    (fun sid sym ->
       let expected =
         List.filter
           (fun (r : G.Preference.t) ->
              G.Symbol.equal r.winner sym || G.Symbol.equal r.loser sym)
           g.G.Grammar.preferences
       in
       Alcotest.(check (list string)) ("preferences of " ^ G.Symbol.name sym)
         (List.map (fun (r : G.Preference.t) -> r.name) expected)
         (pref_names t.Dispatch.prefs.(sid));
       Array.iter
         (fun (p : Dispatch.pref) ->
            Alcotest.(check bool) "winner id" true
              (G.Symbol.equal t.Dispatch.syms.(p.Dispatch.wsid) p.pref.winner);
            Alcotest.(check bool) "loser id" true
              (G.Symbol.equal t.Dispatch.syms.(p.Dispatch.lsid) p.pref.loser))
         t.Dispatch.prefs.(sid))
    t.Dispatch.syms;
  List.iter
    (fun k ->
       Alcotest.(check bool) ("token sid " ^ Token.kind_name k) true
         (G.Symbol.equal t.Dispatch.syms.(Dispatch.token_sid k)
            (G.Symbol.of_token_kind k)))
    Dispatch.all_token_kinds

let suite =
  [ to_alcotest prop_condition_to_string;
    ("Condition.to_string corners", `Quick, test_condition_corners);
    to_alcotest prop_describe;
    to_alcotest prop_as_int;
    ("Lexicon.as_int corners", `Quick, test_as_int_corners);
    to_alcotest prop_plausible_attribute;
    to_alcotest prop_plausible_date_combo;
    to_alcotest prop_key_make;
    to_alcotest prop_crc32;
    ("Crc32 check value", `Quick, test_crc32_vector);
    ("element classes = the old lists", `Quick, test_element_classes);
    to_alcotest prop_reading_order;
    ("parse loop tables", `Quick, test_parse_tables) ]
