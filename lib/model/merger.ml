type parse = {
  conditions : (Condition.t * int list) list;
  cover : int list;
}

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)
module Str_set = Set.Make (String)

(* Conditions that agree on this string are one condition: the
   normalized attribute and the sorted, deduplicated normalized
   operators, each as a length-prefixed field, then the domain's shape
   (which starts with a letter, so it cannot be read as a field). *)
let condition_key (c : Condition.t) =
  let b = Buffer.create 64 in
  let field s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let rec domain = function
    | Condition.Text -> Buffer.add_char b 't'
    | Condition.Datetime -> Buffer.add_char b 'd'
    | Condition.Range d ->
      Buffer.add_string b "r(";
      domain d;
      Buffer.add_char b ')'
    | Condition.Enumeration vs ->
      Buffer.add_char b 'e';
      Buffer.add_string b (string_of_int (List.length vs))
  in
  field (Condition.normalize_label c.attribute);
  List.iter field
    (List.sort_uniq String.compare
       (List.map Condition.normalize_label c.operators));
  domain c.domain;
  Buffer.contents b

let merge ~all_tokens ?(ignorable = fun _ -> false) parses =
  (* Union of conditions, deduplicated; remember the first token-set each
     distinct condition claims so conflicts can be detected. *)
  let seen = ref Str_set.empty in
  let conditions = ref [] in
  let claims = ref Int_map.empty in
  let errors = ref [] in
  List.iter
    (fun parse ->
       List.iter
         (fun (cond, tokens) ->
            let key = condition_key cond in
            if not (Str_set.mem key !seen) then begin
              seen := Str_set.add key !seen;
              conditions := cond :: !conditions;
              let label = Condition.to_string cond in
              List.iter
                (fun tok ->
                   match Int_map.find_opt tok !claims with
                   | Some other when other <> label ->
                     errors :=
                       Semantic_model.Conflict (tok, other, label) :: !errors
                   | Some _ -> ()
                   | None -> claims := Int_map.add tok label !claims)
                tokens
            end)
         parse.conditions)
    parses;
  let covered =
    List.fold_left
      (fun acc parse ->
         List.fold_left (fun acc t -> Int_set.add t acc) acc parse.cover)
      Int_set.empty parses
  in
  List.iter
    (fun (tok, descr) ->
       if (not (Int_set.mem tok covered)) && not (ignorable tok) then
         errors := Semantic_model.Missing (tok, descr) :: !errors)
    all_tokens;
  { Semantic_model.conditions = List.rev !conditions;
    errors = List.rev !errors }
