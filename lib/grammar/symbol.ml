module Self = struct
  type t =
    | Terminal of string
    | Nonterminal of string

  let compare a b =
    match a, b with
    | Terminal x, Terminal y -> String.compare x y
    | Nonterminal x, Nonterminal y -> String.compare x y
    | Terminal _, Nonterminal _ -> -1
    | Nonterminal _, Terminal _ -> 1
end

include Self

let terminal name = Terminal name
let nonterminal name = Nonterminal name

let name = function Terminal n | Nonterminal n -> n

let is_terminal = function Terminal _ -> true | Nonterminal _ -> false

(* One shared symbol per token kind: every token instance names one. *)
let of_token_kind =
  let open Wqi_token.Token in
  let sym k = Terminal (kind_name k) in
  let text = sym Text and textbox = sym Textbox and selection = sym Selection
  and radio = sym Radio and checkbox = sym Checkbox and button = sym Button
  and image = sym Image in
  function
  | Text -> text
  | Textbox -> textbox
  | Selection -> selection
  | Radio -> radio
  | Checkbox -> checkbox
  | Button -> button
  | Image -> image

let equal a b = compare a b = 0

let pp ppf = function
  | Terminal n -> Fmt.pf ppf "'%s'" n
  | Nonterminal n -> Fmt.string ppf n

module Set = Set.Make (Self)
module Map = Map.Make (Self)
