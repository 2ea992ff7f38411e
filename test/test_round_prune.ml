(* Round-level pruning: a self-subsumption preference of a chain symbol
   (QI, HQI in the standard grammar) is applied after every fix-point
   round instead of once the fix-point ends.  The pruning must be
   invisible in the results: a property test compares maximal trees and
   semantic models against the same grammar with every preference's
   kind cleared (same closures, enforced only at fix-point end) over
   adversarial row, column and checkbox-grid layouts.  Deterministic
   counter gates pin what the pruning buys on uniform row ladders. *)

module G = Wqi_grammar
module Engine = Wqi_parser.Engine
module Dispatch = Wqi_parser.Dispatch
module Token = Wqi_token.Token
module Geometry = Wqi_layout.Geometry
module Q = QCheck

let check_int = Alcotest.(check int)

let std = Wqi_stdgrammar.Std.grammar

(* The reference: identical preferences, marker cleared, so no symbol
   qualifies for round-level pruning. *)
let end_only (g : G.Grammar.t) =
  { g with
    G.Grammar.preferences =
      List.map
        (fun (r : G.Preference.t) -> { r with G.Preference.kind = Opaque })
        g.G.Grammar.preferences }

let pruned_pack = Engine.compile std
let end_only_pack = Engine.compile (end_only std)

let round_pruned_symbols (pack : Engine.compiled) =
  let t = pack.Engine.tables in
  List.filter_map
    (fun sid ->
       if t.Dispatch.round_prune.(sid) = [] then None
       else Some (G.Symbol.name t.Dispatch.syms.(sid)))
    (List.init t.Dispatch.nsyms Fun.id)

let test_eligibility () =
  Alcotest.(check (list string))
    "chain symbols only (CBList/RBList grow two ways)" [ "HQI"; "QI" ]
    (List.sort compare (round_pruned_symbols pruned_pack));
  Alcotest.(check (list string))
    "cleared marker disables it" [] (round_pruned_symbols end_only_pack)

(* ------------------------------------------------------------------ *)
(* Adversarial layouts                                                  *)
(* ------------------------------------------------------------------ *)

type piece = { kind : Token.kind; x : int; y : int; w : int; h : int;
               text : string }

let labels =
  [| "Title"; "Author"; "Publisher"; "Keywords"; "Price"; "City";
     "Category"; "Zip code"; "Make"; "Model"; "Year"; "Subject"; "ISBN";
     "Departure city"; "Job type"; "Salary" |]

let tokens_of pieces =
  List.mapi
    (fun id p ->
       { Token.id; kind = p.kind;
         box = Geometry.make ~x1:p.x ~y1:p.y ~x2:(p.x + p.w) ~y2:(p.y + p.h);
         sval = p.text; name = (if p.kind = Token.Text then "" else "f");
         options = []; value = ""; checked = false; multiple = false })
    pieces

open Q.Gen

let label_gen = map (fun i -> labels.(i)) (int_bound (Array.length labels - 1))

(* A row that the grammar cannot explain as a label|field pair. *)
let noise_row ~y ~h =
  int_range 0 60 >>= fun x ->
  oneofl
    [ [ { kind = Token.Text; x; y; w = 420; h;
          text = "Please fill in as many fields as you like" } ];
      [ { kind = Token.Image; x; y; w = 60; h; text = "logo" } ];
      [ { kind = Token.Button; x; y; w = 70; h; text = "Go" } ];
      [ { kind = Token.Textbox; x; y; w = 120; h; text = "" } ];
      [ { kind = Token.Text; x; y; w = 50; h; text = "and" };
        { kind = Token.Text; x = x + 60; y; w = 50; h; text = "or" } ] ]

(* n label | textbox rows with random gaps (some inside, some beyond
   the grammar's 120 px row reach), heights, x-offsets and field gaps;
   about one row in seven is out of grammar. *)
let rows_block ~y0 n =
  let rec go i y acc =
    if i = n then return (List.concat (List.rev acc), y)
    else
      int_range 10 40 >>= fun h ->
      int_range 0 150 >>= fun gap ->
      let y = y + gap in
      int_bound 6 >>= fun roll ->
      (if roll = 0 then noise_row ~y ~h
       else
         int_range 0 80 >>= fun x ->
         int_range 30 120 >>= fun lw ->
         int_range 2 60 >>= fun fgap ->
         int_range 40 160 >>= fun tw ->
         label_gen >>= fun text ->
         return
           [ { kind = Token.Text; x; y; w = lw; h; text };
             { kind = Token.Textbox; x = x + lw + fgap; y; w = tw; h;
               text = "" } ])
      >>= fun row -> go (i + 1) (y + h) (row :: acc)
  in
  go 0 y0 []

(* n columns: a row of labels over a row of textboxes. *)
let columns_block ~y0 n =
  int_range 70 160 >>= fun pitch ->
  int_range 12 30 >>= fun h ->
  int_range 2 40 >>= fun gap ->
  int_range 0 40 >>= fun x0 ->
  list_repeat n label_gen >>= fun ls ->
  let col i = x0 + (i * pitch) in
  let top =
    List.mapi
      (fun i text -> { kind = Token.Text; x = col i; y = y0; w = pitch - 10;
                       h; text })
      ls
  in
  let y1 = y0 + h + gap in
  let bottom =
    List.init n (fun i ->
        { kind = Token.Textbox; x = col i; y = y1; w = pitch - 10; h;
          text = "" })
  in
  return (top @ bottom, y1 + h)

(* A label over an r x c grid of labelled checkboxes. *)
let grid_block ~y0 r c =
  label_gen >>= fun text ->
  int_range 18 40 >>= fun pitch_y ->
  int_range 90 160 >>= fun pitch_x ->
  int_range 0 40 >>= fun x0 ->
  let head = { kind = Token.Text; x = x0; y = y0; w = 100; h = 16; text } in
  let cells =
    List.concat
      (List.init r (fun i ->
           List.concat
             (List.init c (fun j ->
                  let x = x0 + (j * pitch_x) and y = y0 + 24 + (i * pitch_y) in
                  [ { kind = Token.Checkbox; x; y; w = 12; h = 12; text = "" };
                    { kind = Token.Text; x = x + 16; y; w = 60; h = 14;
                      text = Printf.sprintf "Option %d" ((i * c) + j + 1) } ]))))
  in
  return (head :: cells, y0 + 24 + (r * pitch_y))

(* Shapes are drawn first and laid out top to bottom afterwards.  The
   end-only reference enumerates every subset of visual rows that a
   120 px gap allows, so its cost is exponential in the rows stacked
   within reach of each other (that blow-up is what round pruning
   removes).  To keep the reference tractable, a layout holds at most
   one row ladder, and layouts past one cover word get their tokens
   from wide shapes rather than tall ones. *)
type shape = Rows of int | Columns of int | Grid of int * int

let layout_shape ~y0 = function
  | Rows n -> rows_block ~y0 n
  | Columns n -> columns_block ~y0 n
  | Grid (r, c) -> grid_block ~y0 r c

let rows_gen = int_range 1 8 >|= fun n -> Rows n
let columns_gen = int_range 2 10 >|= fun n -> Columns n

let grid_gen ~rows ~cols =
  int_range 1 rows >>= fun r -> int_range 1 cols >|= fun c -> Grid (r, c)

let place ~min_gap shapes =
  let rec go y acc = function
    | [] -> return (tokens_of acc)
    | shape :: rest ->
      int_range min_gap 150 >>= fun gap ->
      layout_shape ~y0:(y + gap) shape >>= fun (pieces, y') ->
      go y' (acc @ pieces) rest
  in
  go 0 [] shapes

(* One or two shapes of any kind, cut to a single cover word. *)
let small_layout =
  let grid = grid_gen ~rows:3 ~cols:6 in
  let any = frequency [ (3, rows_gen); (2, columns_gen); (2, grid) ] in
  let not_rows = oneof [ columns_gen; grid ] in
  any >>= fun first ->
  int_bound 1 >>= fun more ->
  (if more = 0 then return [ first ]
   else
     (match first with Rows _ -> not_rows | _ -> any) >>= fun second ->
     return [ first; second ])
  >>= place ~min_gap:0
  >|= List.filter (fun (t : Token.t) -> t.Token.id < G.Bitset.bits_per_word)

(* Two ten-column shapes, a two-row grid six checkboxes wide and an
   optional short ladder, in random order: 65 tokens or more, eleven
   visual rows at most.  Shapes sit at least 15 px apart: a label row
   closer under a textbox row also reads as labelling it from below,
   and two readings per column multiply the reference's row subsets
   beyond what a test can afford. *)
let large_layout =
  opt (int_range 1 4) >>= fun ladder ->
  let shapes = [ Columns 10; Columns 10; Grid (2, 6) ] in
  shuffle_l
    (match ladder with Some n -> Rows n :: shapes | None -> shapes)
  >>= place ~min_gap:15

let print_tokens toks =
  String.concat "\n"
    (List.map
       (fun (t : Token.t) ->
          Fmt.str "%d %s %a %S" t.Token.id (Token.kind_name t.Token.kind)
            Geometry.pp t.Token.box t.Token.sval)
       toks)

(* A truncated reference would make the comparison meaningless: the
   generator is bounded so that it never happens. *)
let same_results toks =
  let pruned = Engine.parse_compiled pruned_pack toks in
  let reference = Engine.parse_compiled end_only_pack toks in
  (not reference.Engine.stats.truncated)
  && Std_golden.tree_strings pruned.Engine.maximal
  = Std_golden.tree_strings reference.Engine.maximal
  && Std_golden.model_strings pruned = Std_golden.model_strings reference
  && (pruned.Engine.complete <> None) = (reference.Engine.complete <> None)

(* A fixed seed keeps the cases, and so the run time, the same on every
   run. *)
let rand () = Random.State.make [| 0x5eed |]

let prop_small =
  Q.Test.make ~name:"round pruning keeps trees and models (one word)"
    ~count:120
    (Q.make ~print:print_tokens small_layout)
    same_results

let prop_large =
  Q.Test.make ~name:"round pruning keeps trees and models (past one word)"
    ~count:12
    (Q.make ~print:print_tokens large_layout)
    same_results

(* ------------------------------------------------------------------ *)
(* Counter gates                                                        *)
(* ------------------------------------------------------------------ *)

(* n label | textbox rows in an HTML table, as a crawled form lays them
   out. *)
let uniform_rows n =
  let row i =
    Printf.sprintf
      "<tr><td>Field %d</td><td><input type=\"text\" name=\"f%d\"></td></tr>"
      (i + 1) (i + 1)
  in
  Wqi_token.Tokenize.of_html
    (Printf.sprintf
       "<html><body><form action=\"/s\"><table>%s</table></form></body></html>"
       (String.concat "" (List.init n row)))

let created toks = (Engine.parse_compiled pruned_pack toks).Engine.stats.created

(* Without round pruning a 12-row table created 3,858 instances, and
   the count grew exponentially with the rows. *)
let test_twelve_rows () =
  let n = created (uniform_rows 12) in
  if n > 400 then Alcotest.failf "12-row table created %d > 400 instances" n

let test_quadratic_bound () =
  List.iter
    (fun rows ->
       let toks = uniform_rows rows in
       let t = List.length toks in
       let n = created toks in
       if n > t * t then
         Alcotest.failf "%d rows (%d tokens): %d instances > tokens^2" rows t n)
    (List.init 19 (fun i -> 4 + (2 * i)))

let test_uniform_rows_parse () =
  (* Every row becomes a condition, on both sides of the word-cover
     boundary. *)
  List.iter
    (fun rows ->
       let r = Engine.parse_compiled pruned_pack (uniform_rows rows) in
       check_int
         (Printf.sprintf "%d rows: conditions" rows)
         rows
         (List.length (Std_golden.model_strings r)))
    [ 12; 31; 32; 40 ]

let suite =
  [ ("eligibility", `Quick, test_eligibility);
    ("12-row table instance gate", `Quick, test_twelve_rows);
    ("uniform rows: created <= tokens^2", `Quick, test_quadratic_bound);
    ("uniform rows parse completely", `Quick, test_uniform_rows_parse);
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_small;
    QCheck_alcotest.to_alcotest ~rand:(rand ()) prop_large ]
