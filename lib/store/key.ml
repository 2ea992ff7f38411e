type t = {
  hash : int64;
  len : int;
  spec : string;
}

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* One FNV-1a step. *)
let[@inline] step h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) fnv_prime

let fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := step !h (String.unsafe_get s i)
  done;
  !h

let fingerprint s = fold fnv_offset s

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* [make] hashes the normalised page (see key.mli) as it scans [html],
   without building it: outer whitespace is skipped and each CR or CRLF
   enters the FNV chain as one LF. *)
let make ~html ~spec =
  (* Chain the spec into the same hash stream, separated by a byte that
     cannot occur in either part's role, so ("ab","c") and ("a","bc")
     fingerprint differently. *)
  let h = ref (step (fold fnv_offset spec) '\x00') in
  let n = String.length html in
  let lo = ref 0 in
  while !lo < n && is_space (String.unsafe_get html !lo) do incr lo done;
  let hi = ref (n - 1) in
  while !hi >= !lo && is_space (String.unsafe_get html !hi) do decr hi done;
  let hi = !hi in
  let len = ref 0 in
  let i = ref !lo in
  while !i <= hi do
    (match String.unsafe_get html !i with
     | '\r' ->
       h := step !h '\n';
       if !i + 1 <= hi && String.unsafe_get html (!i + 1) = '\n' then incr i
     | c -> h := step !h c);
    incr len;
    incr i
  done;
  { hash = !h; len = !len; spec }

let spec ~grammar_name ~grammar_version ~name budget =
  Printf.sprintf "v%d|grammar=%s@%s|name=%s|budget=%s"
    Wqi_model.Export.extraction_version grammar_name grammar_version name
    (Wqi_model.Export.budget budget)

let equal a b =
  Int64.equal a.hash b.hash && a.len = b.len && String.equal a.spec b.spec

let compare a b =
  match Int64.compare a.hash b.hash with
  | 0 -> (match Int.compare a.len b.len with
      | 0 -> String.compare a.spec b.spec
      | c -> c)
  | c -> c

let to_hex h = Printf.sprintf "%016Lx" h

let of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v -> Some v
    | None -> None
