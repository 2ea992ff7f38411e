type token =
  | Text of string
  | Open of string * (string * string) list * bool
  | Close of string
  | Comment of string
  | Doctype of string

let pp_token ppf = function
  | Text s -> Fmt.pf ppf "Text %S" s
  | Open (name, attrs, self) ->
    Fmt.pf ppf "Open(%s%a%s)" name
      Fmt.(list ~sep:nop (fun ppf (k, v) -> pf ppf " %s=%S" k v))
      attrs
      (if self then " /" else "")
  | Close name -> Fmt.pf ppf "Close(%s)" name
  | Comment s -> Fmt.pf ppf "Comment %S" s
  | Doctype s -> Fmt.pf ppf "Doctype %S" s

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '_' || c = ':'

(* Raw-text elements whose content must not be parsed as markup. *)
let raw_text_mode name =
  match name with
  | "script" | "style" -> Some `Verbatim
  | "textarea" | "title" -> Some `Decoded
  | _ -> None

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable out : token list; (* reversed *)
}

let peek st off =
  let i = st.pos + off in
  if i < st.len then Some st.src.[i] else None

let emit st tok = st.out <- tok :: st.out

let emit_text st s = if s <> "" then emit st (Text (Entity.decode s))

(* Find the next occurrence of [sub] (ASCII case-insensitive) at or after
   [from]; returns the index or [len] when absent. *)
let find_ci st sub from =
  let sub = String.lowercase_ascii sub in
  let m = String.length sub in
  let rec matches_at i j =
    j >= m
    || (Char.lowercase_ascii st.src.[i + j] = sub.[j] && matches_at i (j + 1))
  in
  let rec go i =
    if i + m > st.len then st.len
    else if matches_at i 0 then i
    else go (i + 1)
  in
  go from

let read_while st pred =
  let start = st.pos in
  while st.pos < st.len && pred st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

let skip_spaces st = ignore (read_while st is_space)

(* Read an attribute value after '='.  Quoted or unquoted. *)
let read_attr_value st =
  skip_spaces st;
  match peek st 0 with
  | Some ('"' as q) | Some ('\'' as q) ->
    st.pos <- st.pos + 1;
    let v = read_while st (fun c -> c <> q) in
    if st.pos < st.len then st.pos <- st.pos + 1;
    Entity.decode v
  | _ ->
    Entity.decode (read_while st (fun c -> not (is_space c) && c <> '>'))

(* Read attributes up to (but not consuming) '>' or end of input.  Returns
   the attribute list and whether the tag ends in '/'. *)
let read_attributes st =
  let attrs = ref [] in
  let self_closing = ref false in
  let continue = ref true in
  while !continue do
    skip_spaces st;
    match peek st 0 with
    | None | Some '>' -> continue := false
    | Some '/' ->
      st.pos <- st.pos + 1;
      (match peek st 0 with
       | Some '>' -> self_closing := true
       | _ -> ())
    | Some c when is_name_start c ->
      let name =
        String.lowercase_ascii (read_while st is_name_char)
      in
      skip_spaces st;
      let value =
        match peek st 0 with
        | Some '=' ->
          st.pos <- st.pos + 1;
          read_attr_value st
        | _ -> ""
      in
      attrs := (name, value) :: !attrs
    | Some _ ->
      (* Stray character in a tag: skip it, as browsers do. *)
      st.pos <- st.pos + 1
  done;
  (List.rev !attrs, !self_closing)

let read_comment st =
  (* st.pos is just past "<!--". *)
  let close = find_ci st "-->" st.pos in
  let body = String.sub st.src st.pos (close - st.pos) in
  st.pos <- min st.len (close + 3);
  emit st (Comment body)

let read_doctype_or_bogus st =
  (* st.pos is just past "<!". *)
  let close =
    match String.index_from_opt st.src st.pos '>' with
    | Some i -> i
    | None -> st.len
  in
  let body = String.sub st.src st.pos (close - st.pos) in
  st.pos <- min st.len (close + 1);
  if String.length body >= 7
  && String.lowercase_ascii (String.sub body 0 7) = "doctype"
  then emit st (Doctype (String.trim body))
  else emit st (Comment body)

(* Consume the raw content of a raw-text element and its close tag. *)
let read_raw_text st name mode =
  let close_tag = "</" ^ name in
  let close = find_ci st close_tag st.pos in
  let body = String.sub st.src st.pos (close - st.pos) in
  (match mode with
   | `Verbatim -> if body <> "" then emit st (Text body)
   | `Decoded -> emit_text st body);
  if close < st.len then begin
    st.pos <- close;
    (* Consume "</name ... >". *)
    st.pos <- st.pos + String.length close_tag;
    let gt =
      match String.index_from_opt st.src st.pos '>' with
      | Some i -> i + 1
      | None -> st.len
    in
    st.pos <- gt;
    emit st (Close name)
  end else st.pos <- st.len

let read_open_tag st =
  (* st.pos is at the first character of the tag name. *)
  let name = String.lowercase_ascii (read_while st is_name_char) in
  let attrs, self_closing = read_attributes st in
  if st.pos < st.len then st.pos <- st.pos + 1; (* consume '>' *)
  emit st (Open (name, attrs, self_closing));
  if not self_closing then
    match raw_text_mode name with
    | Some mode -> read_raw_text st name mode
    | None -> ()

let read_close_tag st =
  (* st.pos is just past "</". *)
  match peek st 0 with
  | Some c when is_name_start c ->
    let name = String.lowercase_ascii (read_while st is_name_char) in
    (* Skip any junk up to '>'. *)
    let gt =
      match String.index_from_opt st.src st.pos '>' with
      | Some i -> i + 1
      | None -> st.len
    in
    st.pos <- gt;
    emit st (Close name)
  | _ ->
    (* "</" followed by a non-name: browsers treat "</>" as nothing and
       "</ ..." as a bogus comment; we drop up to '>'. *)
    let gt =
      match String.index_from_opt st.src st.pos '>' with
      | Some i -> i + 1
      | None -> st.len
    in
    st.pos <- gt

let tokenize src =
  let st = { src; len = String.length src; pos = 0; out = [] } in
  let text_start = ref 0 in
  let flush_text upto =
    if upto > !text_start then
      emit_text st (String.sub st.src !text_start (upto - !text_start))
  in
  while st.pos < st.len do
    if st.src.[st.pos] = '<' then begin
      let tag_kind =
        match peek st 1 with
        | Some c when is_name_start c -> `Open
        | Some '/' -> `Close
        | Some '!' ->
          if peek st 2 = Some '-' && peek st 3 = Some '-' then `Comment
          else `Declaration
        | Some '?' -> `Processing
        | _ -> `NotATag
      in
      match tag_kind with
      | `NotATag -> st.pos <- st.pos + 1
      | kind ->
        flush_text st.pos;
        (match kind with
         | `Open ->
           st.pos <- st.pos + 1;
           read_open_tag st
         | `Close ->
           st.pos <- st.pos + 2;
           read_close_tag st
         | `Comment ->
           st.pos <- st.pos + 4;
           read_comment st
         | `Declaration ->
           st.pos <- st.pos + 2;
           read_doctype_or_bogus st
         | `Processing ->
           let gt =
             match String.index_from_opt st.src st.pos '>' with
             | Some i -> i + 1
             | None -> st.len
           in
           st.pos <- gt
         | `NotATag -> assert false);
        text_start := st.pos
    end else st.pos <- st.pos + 1
  done;
  flush_text st.len;
  List.rev st.out
