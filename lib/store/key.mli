(** Content-addressed keys shared by the serve cache and the persistent
    store.

    A key fingerprints what actually determines an extraction's wire
    bytes: the (normalized) HTML content and a [spec] string carrying
    everything else that shapes the response — export version, grammar
    name and version, source name, budget caps.  The hash chain is
    FNV-1a/64 over [spec], a zero separator byte, then the normalized
    HTML, guarded by the normalized length and the spec itself, so a
    lookup never has to touch the original markup.

    This module is the single definition of that keying:
    [Wqi_serve.Cache] re-exports it ([Cache.key = Key.make]) and
    {!Store} indexes by it, so the in-memory LRU tier and the on-disk
    warm tier can never drift apart — the same request hashes to the
    same identity in both. *)

type t = {
  hash : int64;  (** FNV-1a/64 over [spec ^ "\x00" ^] the normalized HTML *)
  len : int;     (** normalized-HTML length: a cheap collision guard *)
  spec : string;
}

val fingerprint : string -> int64
(** The raw FNV-1a/64 hash (offset basis 0xcbf29ce484222325, prime
    0x100000001b3). *)

val fold : int64 -> string -> int64
(** [fold h s] continues an FNV-1a/64 chain over [s] from state [h]. *)

val make : html:string -> spec:string -> t
(** [make ~html ~spec] fingerprints the normalized HTML chained after
    [spec] (separated by a byte that cannot occur in either part's
    role, so [("ab","c")] and [("a","bc")] fingerprint differently).

    Normalization: leading and trailing ASCII whitespace (space, tab,
    LF, CR, form feed) is dropped, and each CRLF or lone CR inside
    becomes LF.  Deliberately conservative — it only merges
    representations that tokenize identically.  It is applied while
    hashing; the normalized page is never built. *)

val spec :
  grammar_name:string ->
  grammar_version:string ->
  name:string ->
  Wqi_budget.Budget.t ->
  string
(** The canonical spec string
    [vN|grammar=<name>@<version>|name=<name>|budget=<json>] used by the
    extraction server's cache, [wqi_batch --store] and [wqi_crawl] —
    one renderer, so the three front-ends agree byte-for-byte on what a
    request is. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_hex : int64 -> string
(** 16 lowercase hex digits of a fingerprint (manifest encoding). *)

val of_hex : string -> int64 option
