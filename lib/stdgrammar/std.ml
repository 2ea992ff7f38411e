module A = Wqi_grammar.Algebra
module H = Wqi_grammar.Hint

let env =
  { A.text_classes =
      [ ("plausible-attribute", Lexicon.plausible_attribute);
        ("bound-marker", Lexicon.is_bound_marker);
        ("unit-word", Lexicon.is_unit_word);
        ("operator-phrase", Lexicon.is_operator_phrase) ];
    options_classes = [ ("all-operator-options", Lexicon.all_operator_options) ];
    splitters =
      [ ("bound-suffix", Lexicon.split_bound_suffix);
        ("unit-prefix", Lexicon.split_unit_prefix) ];
    combos = [ ("date-combo", Lexicon.plausible_date_combo) ] }

(* ------------------------------------------------------------------ *)
(* Shorthands                                                          *)
(* ------------------------------------------------------------------ *)

let p name head components ?(guard = A.P_true) ?(build = A.B_none) () =
  { A.p_name = name; p_head = head; p_components = components;
    p_guard = guard; p_build = build }

let left g a b = A.P_rel (H.Left_of g, a, b)
let above g a b = A.P_rel (H.Above g, a, b)
let below g a b = A.P_rel (H.Below g, a, b)
let left_aligned t a b = A.P_rel (H.Left_aligned t, a, b)

(* The two label conventions: label to the left of its field (columns
   sized by the longest sibling label, hence the wide gap), or stacked
   above it and left-aligned with it, which stops a label from
   capturing a field in the row above or below within a label
   column. *)
let attr_left a b = left 150 a b
let stacked_above a b = A.P_and [ above 40 a b; left_aligned 25 a b ]

let unit_gap = 30

let cond ?operators ~attribute domain = A.B_cond (operators, attribute, domain)

(* ------------------------------------------------------------------ *)
(* Productions                                                         *)
(* ------------------------------------------------------------------ *)

(* Declaration order is the instance-id contract (ids break ties in
   maximal-tree selection); test/golden/std_parse.txt pins it. *)

let atoms =
  [ p "P-Attr" "Attr" [ "text" ]
      ~guard:(A.P_text_is ("plausible-attribute", A.Token_text, 0))
      ~build:(A.B_str (A.S_token_text 0))
      ();
    p "P-Val" "Val" [ "textbox" ] ~build:(A.B_domain A.D_text) ();
    p "P-SelVal" "SelVal" [ "selection" ]
      ~build:(A.B_domain (A.D_enum (A.O_token_options 0)))
      ();
    p "P-OpSel" "OpSel" [ "selection" ]
      ~guard:(A.P_options_class ("all-operator-options", 0))
      ~build:(A.B_ops (A.O_token_options 0))
      ();
    p "P-AttrBound" "AttrBound" [ "text" ]
      ~guard:(A.P_split_applies ("bound-suffix", 0))
      ~build:(A.B_split_str ("bound-suffix", `First, 0))
      ();
    p "P-AttrTail" "AttrTail" [ "text" ]
      ~guard:(A.P_split_applies ("unit-prefix", 0))
      ~build:(A.B_split_str ("unit-prefix", `Second, 0))
      ();
    p "P-BoundWord" "BoundWord" [ "text" ]
      ~guard:(A.P_text_is ("bound-marker", A.Token_text, 0))
      ~build:(A.B_str (A.S_token_text 0))
      ();
    p "P-UnitWord" "UnitWord" [ "text" ]
      ~guard:(A.P_text_is ("unit-word", A.Token_text, 0))
      ();
    p "P-Action" "Action" [ "button" ] ();
    p "P-Decor" "Decor" [ "image" ] () ]

let button_units =
  [ p "P-RBU" "RBU" [ "radio"; "text" ]
      ~guard:(left unit_gap 0 1)
      ~build:(A.B_str (A.S_token_text 1))
      ();
    p "P-CBU" "CBU" [ "checkbox"; "text" ]
      ~guard:(left unit_gap 0 1)
      ~build:(A.B_str (A.S_token_text 1))
      () ]

let list_of_units name list_sym unit_sym =
  [ p (name ^ "-base") list_sym [ unit_sym ]
      ~build:(A.B_ops (A.O_singleton 0))
      ();
    p (name ^ "-h") list_sym [ list_sym; unit_sym ]
      ~guard:(left 90 0 1)
      ~build:(A.B_ops (A.O_append (0, 1)))
      ();
    p (name ^ "-v") list_sym [ list_sym; unit_sym ]
      ~guard:(A.P_and [ above 20 0 1; left_aligned 10 0 1 ])
      ~build:(A.B_ops (A.O_append (0, 1)))
      () ]

let lists =
  list_of_units "P-RBList" "RBList" "RBU"
  @ list_of_units "P-CBList" "CBList" "CBU"

let op_productions =
  [ p "P-Op-RB" "Op" [ "RBList" ]
      ~guard:(A.P_ops_exists ("operator-phrase", 0))
      ~build:(A.B_ops (A.O_sem_ops 0))
      ();
    p "P-Op-Sel" "Op" [ "OpSel" ] ~build:(A.B_ops (A.O_sem_ops 0)) ();
    (* Checkbox modifier lists ("[x] exact match  [x] whole words"). *)
    p "P-Op-CB" "Op" [ "CBList" ]
      ~guard:(A.P_ops_forall ("operator-phrase", 0))
      ~build:(A.B_ops (A.O_sem_ops 0))
      () ]

let text_val_build = cond ~attribute:(A.S_sem_str 0) A.D_text

let text_vals =
  [ p "P-TextVal-left" "TextVal" [ "Attr"; "Val" ]
      ~guard:(attr_left 0 1) ~build:text_val_build ();
    p "P-TextVal-above" "TextVal" [ "Attr"; "Val" ]
      ~guard:(stacked_above 0 1) ~build:text_val_build ();
    p "P-TextVal-below" "TextVal" [ "Attr"; "Val" ]
      ~guard:(A.P_and [ below 14 0 1; left_aligned 25 0 1 ])
      ~build:text_val_build ();
    (* "...miles of ZIP [box]": the unit-prefixed run labels the next
       field. *)
    p "P-TextVal-tail" "TextVal" [ "AttrTail"; "Val" ]
      ~guard:(left 60 0 1) ~build:text_val_build ();
    p "P-TextVal-unit" "TextVal" [ "Attr"; "Val"; "UnitWord" ]
      ~guard:(A.P_and [ attr_left 0 1; left 30 1 2 ])
      ~build:text_val_build () ]

let text_op_build =
  cond ~operators:(A.O_sem_ops 2) ~attribute:(A.S_sem_str 0) A.D_text

let text_op_build_op_mid =
  cond ~operators:(A.O_sem_ops 1) ~attribute:(A.S_sem_str 0) A.D_text

let text_ops =
  [ (* Paper P5: Left(Attr, Val) ∧ Below(Op, Val) — operators under the
       textbox. *)
    p "P-TextOp-below" "TextOp" [ "Attr"; "Val"; "Op" ]
      ~guard:(A.P_and [ attr_left 0 1; above 24 1 2 ])
      ~build:text_op_build ();
    p "P-TextOp-right" "TextOp" [ "Attr"; "Val"; "Op" ]
      ~guard:(A.P_and [ attr_left 0 1; left 90 1 2 ])
      ~build:text_op_build ();
    p "P-TextOp-opleft" "TextOp" [ "Attr"; "Op"; "Val" ]
      ~guard:(A.P_and [ attr_left 0 1; left 60 1 2 ])
      ~build:text_op_build_op_mid ();
    p "P-TextOp-attrabove" "TextOp" [ "Attr"; "Val"; "Op" ]
      ~guard:(A.P_and [ above 40 0 1; above 24 1 2 ])
      ~build:text_op_build () ]

let select_build = cond ~attribute:(A.S_sem_str 0) (A.D_of_slot 1)

let select_cps =
  [ p "P-SelectCP-left" "SelectCP" [ "Attr"; "SelVal" ]
      ~guard:(attr_left 0 1) ~build:select_build ();
    p "P-SelectCP-above" "SelectCP" [ "Attr"; "SelVal" ]
      ~guard:(stacked_above 0 1) ~build:select_build () ]

let enum_rb_build =
  cond ~attribute:(A.S_sem_str 0) (A.D_enum (A.O_sem_ops 1))

let enum_rbs =
  [ (* Paper P7: a bare radio-button list is itself a condition. *)
    p "P-EnumRB-bare" "EnumRB" [ "RBList" ]
      ~guard:(A.P_ops_count_ge (2, 0))
      ~build:(cond ~attribute:(A.S_lit "") (A.D_enum (A.O_sem_ops 0)))
      ();
    p "P-EnumRB-left" "EnumRB" [ "Attr"; "RBList" ]
      ~guard:(attr_left 0 1) ~build:enum_rb_build ();
    p "P-EnumRB-above" "EnumRB" [ "Attr"; "RBList" ]
      ~guard:(stacked_above 0 1) ~build:enum_rb_build () ]

let check_cp_build =
  cond ~attribute:(A.S_sem_str 0) (A.D_enum (A.O_sem_ops 1))

let check_cps =
  [ p "P-CheckCP-bare" "CheckCP" [ "CBList" ]
      ~guard:(A.P_ops_count_ge (2, 0))
      ~build:(cond ~attribute:(A.S_lit "") (A.D_enum (A.O_sem_ops 0)))
      ();
    p "P-CheckCP-left" "CheckCP" [ "Attr"; "CBList" ]
      ~guard:(attr_left 0 1) ~build:check_cp_build ();
    p "P-CheckCP-above" "CheckCP" [ "Attr"; "CBList" ]
      ~guard:(stacked_above 0 1) ~build:check_cp_build ();
    p "P-CBSolo" "CBSolo" [ "CBU" ]
      ~build:
        (cond ~attribute:(A.S_sem_str 0) (A.D_enum (A.O_singleton 0)))
      () ]

let bounds =
  [ p "P-BoundVal" "BoundVal" [ "BoundWord"; "Val" ]
      ~guard:(left 40 0 1)
      ~build:(A.B_domain A.D_text)
      ();
    p "P-BoundSel" "BoundSel" [ "BoundWord"; "SelVal" ]
      ~guard:(left 40 0 1)
      ~build:(A.B_domain (A.D_of_slot 1))
      () ]

let range_bodies =
  [ p "P-RangeBody-h" "RangeBody" [ "BoundVal"; "BoundVal" ]
      ~guard:(left 120 0 1)
      ~build:(A.B_domain (A.D_range A.D_text))
      ();
    p "P-RangeBody-v" "RangeBody" [ "BoundVal"; "BoundVal" ]
      ~guard:(above 24 0 1)
      ~build:(A.B_domain (A.D_range A.D_text))
      ();
    (* "Attr [tb] to [tb]": the first bound carries no marker. *)
    p "P-RangeBody-valfirst" "RangeBody" [ "Val"; "BoundVal" ]
      ~guard:(left 60 0 1)
      ~build:(A.B_domain (A.D_range A.D_text))
      ();
    p "P-RangeSelBody-h" "RangeSelBody" [ "BoundSel"; "BoundSel" ]
      ~guard:(left 120 0 1)
      ~build:(A.B_domain (A.D_range (A.D_of_slot 0)))
      ();
    p "P-RangeSelBody-v" "RangeSelBody" [ "BoundSel"; "BoundSel" ]
      ~guard:(above 24 0 1)
      ~build:(A.B_domain (A.D_range (A.D_of_slot 0)))
      () ]

let range_build =
  cond ~operators:(A.O_lit [ "between" ]) ~attribute:(A.S_sem_str 0)
    (A.D_of_slot 1)

(* "From: [box] To: [box]" is two attributed conditions, not a range:
   a range pattern's attribute is never itself a bare bound marker. *)
let range_attr_ok a = A.P_not (A.P_text_is ("bound-marker", A.Sem_str, a))

let range_cps =
  [ p "P-RangeCP-combined" "RangeCP" [ "AttrBound"; "Val"; "BoundVal" ]
      ~guard:(A.P_and [ attr_left 0 1; left 60 1 2 ])
      ~build:
        (cond ~operators:(A.O_lit [ "between" ]) ~attribute:(A.S_sem_str 0)
           (A.D_range A.D_text))
      ();
    p "P-RangeSelCP-combined" "RangeSelCP" [ "AttrBound"; "SelVal"; "BoundSel" ]
      ~guard:(A.P_and [ attr_left 0 1; left 60 1 2 ])
      ~build:
        (cond ~operators:(A.O_lit [ "between" ]) ~attribute:(A.S_sem_str 0)
           (A.D_range (A.D_of_slot 1)))
      ();
    p "P-RangeCP-left" "RangeCP" [ "Attr"; "RangeBody" ]
      ~guard:(A.P_and [ range_attr_ok 0; attr_left 0 1 ])
      ~build:range_build ();
    p "P-RangeCP-above" "RangeCP" [ "Attr"; "RangeBody" ]
      ~guard:(A.P_and [ range_attr_ok 0; above 40 0 1; left_aligned 25 0 1 ])
      ~build:range_build ();
    p "P-RangeSelCP-left" "RangeSelCP" [ "Attr"; "RangeSelBody" ]
      ~guard:(A.P_and [ range_attr_ok 0; attr_left 0 1 ])
      ~build:range_build ();
    p "P-RangeSelCP-above" "RangeSelCP" [ "Attr"; "RangeSelBody" ]
      ~guard:(A.P_and [ range_attr_ok 0; above 40 0 1; left_aligned 25 0 1 ])
      ~build:range_build () ]

let date_bodies =
  [ p "P-DateBody-3" "DateBody" [ "SelVal"; "SelVal"; "SelVal" ]
      ~guard:
        (A.P_and
           [ left 30 0 1; left 30 1 2; A.P_combo ("date-combo", [ 0; 1; 2 ]) ])
      ~build:(A.B_domain A.D_datetime)
      ();
    p "P-DateBody-2" "DateBody" [ "SelVal"; "SelVal" ]
      ~guard:(A.P_and [ left 30 0 1; A.P_combo ("date-combo", [ 0; 1 ]) ])
      ~build:(A.B_domain A.D_datetime)
      () ]

let date_build = cond ~attribute:(A.S_sem_str 0) A.D_datetime

let date_cps =
  [ p "P-DateCP-left" "DateCP" [ "Attr"; "DateBody" ]
      ~guard:(attr_left 0 1) ~build:date_build ();
    p "P-DateCP-above" "DateCP" [ "Attr"; "DateBody" ]
      ~guard:(stacked_above 0 1) ~build:date_build () ]

let keyword_cps =
  [ p "P-KeywordCP" "KeywordCP" [ "Val"; "Action" ]
      ~guard:(left 60 0 1)
      ~build:(cond ~attribute:(A.S_lit "") A.D_text)
      () ]

let cp_alternatives =
  [ "TextVal"; "TextOp"; "SelectCP"; "EnumRB"; "CheckCP"; "CBSolo";
    "RangeCP"; "RangeSelCP"; "DateCP"; "KeywordCP"; "Action"; "Decor" ]

let cp_productions =
  List.map
    (fun alt -> p ("P-CP-" ^ alt) "CP" [ alt ] ~build:(A.B_lift 0) ())
    cp_alternatives

let assembly =
  [ p "P-HQI-base" "HQI" [ "CP" ] ~build:(A.B_lift 0) ();
    p "P-HQI-left" "HQI" [ "HQI"; "CP" ]
      ~guard:(left 150 0 1)
      ~build:(A.B_concat (0, 1))
      ();
    p "P-QI-base" "QI" [ "HQI" ] ~build:(A.B_lift 0) ();
    p "P-QI-above" "QI" [ "QI"; "HQI" ]
      ~guard:(above 120 0 1)
      ~build:(A.B_concat (0, 1))
      () ]

let productions =
  atoms @ button_units @ lists @ op_productions @ text_vals @ text_ops
  @ select_cps @ enum_rbs @ check_cps @ bounds @ range_bodies @ range_cps
  @ date_bodies @ date_cps @ keyword_cps @ cp_productions @ assembly

(* ------------------------------------------------------------------ *)
(* Preferences (in enforcement order, which the golden pins too)       *)
(* ------------------------------------------------------------------ *)

let pref name winner loser kind =
  { A.r_name = name; r_winner = winner; r_loser = loser; r_kind = kind }

let beats ~name winner loser = pref name winner loser A.K_beats
let subsume_pref sym = pref ("R-subsume-" ^ sym) sym sym A.K_subsume
let closest_unit sym = pref ("R-closest-" ^ sym) sym sym A.K_closest_unit

let clean_range_attr sym =
  pref ("R-clean-attr-" ^ sym) sym sym
    (A.K_clean_attr [ "bound-suffix"; "unit-prefix" ])

let attr_symbols = [ "Attr"; "AttrBound"; "AttrTail" ]

let assoc_pref winner loser =
  pref
    (Printf.sprintf "R-assoc-%s-%s" winner loser)
    winner loser (A.K_assoc attr_symbols)

(* Pattern-precedence pairs are arbitrated unconditionally, never by
   association score (an operator list under a textbox is the farther
   reading, yet the conventional one); every other pair in the
   attribute-field family is arbitrated by association score. *)
let precedence_pairs =
  [ ("TextOp", "TextVal"); ("TextOp", "EnumRB"); ("TextOp", "SelectCP");
    ("DateCP", "SelectCP"); ("RangeCP", "TextVal"); ("RangeCP", "SelectCP");
    ("RangeSelCP", "SelectCP"); ("CheckCP", "CBSolo");
    ("TextOp", "CheckCP"); ("TextOp", "CBSolo");
    ("TextVal", "KeywordCP"); ("SelectCP", "KeywordCP") ]

let attr_field_family =
  [ "TextVal"; "TextOp"; "SelectCP"; "EnumRB"; "CheckCP"; "DateCP";
    "RangeCP"; "RangeSelCP" ]

let assoc_prefs =
  List.concat_map
    (fun winner ->
       List.filter_map
         (fun loser ->
            let excluded =
              List.exists
                (fun (w, l) ->
                   (w = winner && l = loser) || (w = loser && l = winner))
                precedence_pairs
            in
            if excluded then None else Some (assoc_pref winner loser))
         attr_field_family)
    attr_field_family

let preferences =
  (* R1 (paper): a unit binds its label more tightly than Attr does. *)
  [ beats ~name:"R1-RBU-Attr" "RBU" "Attr";
    beats ~name:"R1-CBU-Attr" "CBU" "Attr";
    closest_unit "RBU";
    closest_unit "CBU";
    (* R2 (paper): longer lists win. *)
    subsume_pref "RBList";
    subsume_pref "CBList" ]
  @ List.map
      (fun (w, l) -> beats ~name:(Printf.sprintf "R-%s-%s" w l) w l)
      precedence_pairs
  @ assoc_prefs
  @ [ clean_range_attr "RangeCP";
      clean_range_attr "RangeSelCP";
      clean_range_attr "TextVal";
      subsume_pref "DateBody";
      subsume_pref "RangeBody";
      subsume_pref "EnumRB";
      subsume_pref "CheckCP";
      subsume_pref "HQI";
      subsume_pref "QI" ]

let decl =
  { A.g_name = "std";
    g_version = "1";
    g_terminals =
      [ "text"; "textbox"; "selection"; "radio"; "checkbox"; "button";
        "image" ];
    g_start = "QI";
    g_productions = productions;
    g_preferences = preferences }

let grammar =
  match A.instantiate env decl with
  | Ok g -> g
  | Error msgs ->
    invalid_arg
      ("Std: standard grammar failed to instantiate: "
       ^ String.concat "; " msgs)

let start = grammar.Wqi_grammar.Grammar.start
let terminals = grammar.Wqi_grammar.Grammar.terminals

(* Compile once at load: the pack (symbol interning, dispatch tables,
   arena pool) is immutable apart from its lock-free pool, so one shared
   copy serves every thread and domain. *)
let compiled =
  Wqi_parser.Engine.compile ~name:decl.A.g_name ~version:decl.A.g_version
    grammar
