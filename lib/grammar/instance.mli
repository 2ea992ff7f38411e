(** Instances: nodes of (partial) parse trees.

    An instance of a symbol covers a set of tokens, occupies a bounding
    box, and carries a semantic value built by its production's
    constructor.  Instances form a DAG during parsing (an instance may
    participate in several competing parents); [alive] and the parent
    links support just-in-time pruning with rollback (Section 5.2). *)

module Condition = Wqi_model.Condition

(** Semantic values propagated bottom-up by production constructors. *)
type sem =
  | S_none
  | S_str of string          (** a label: attribute name, operator text *)
  | S_ops of string list     (** an operator set *)
  | S_domain of Condition.domain  (** an input domain *)
  | S_cond of Condition.t    (** a completed query condition *)
  | S_conds of Condition.t list   (** conditions aggregated by rows/QI *)

type t = private {
  id : int;
  sym : Symbol.t;
  prod : string option;       (** producing production; [None] for tokens *)
  children : t list;          (** in component order *)
  cover : Bitset.t;           (** covered token ids *)
  box : Wqi_layout.Geometry.box;
  sem : sem;
  token : Wqi_token.Token.t option;  (** the token, for terminal instances *)
  mutable alive : bool;
  mutable parents : t list;
}

val of_token : id:int -> universe:int -> Wqi_token.Token.t -> t
(** Terminal instance covering exactly its token. *)

val make :
  id:int ->
  sym:Symbol.t ->
  prod:string ->
  children:t list ->
  sem:sem ->
  t
(** Nonterminal instance; cover and box are the unions over [children].
    Registers itself as a parent of each child. *)

val prebuilt :
  id:int ->
  sym:Symbol.t ->
  prod:string ->
  children:t list ->
  sem:sem ->
  cover:Bitset.t ->
  box:Wqi_layout.Geometry.box ->
  t
(** {!make} with the cover and box supplied by the caller instead of
    recomputed from [children].  For the parser's arena fast path, which
    tracks both incrementally while binding components; the caller must
    pass exactly the unions {!make} would have computed, or every
    downstream subsumption/conflict decision is corrupted. *)

val kill : t -> unit
(** Mark dead.  Does not touch parents; see {!rollback}. *)

val rollback : ?on_kill:(t -> unit) -> t -> int
(** [rollback i] kills [i] and, transitively, every live ancestor that
    used it; returns the number of instances killed (including [i] if it
    was alive).  [on_kill] is invoked once per instance actually killed,
    in kill order — the parser uses it to keep its spatial candidate
    index in step with the store. *)

val conflicts : t -> t -> bool
(** Two instances conflict when their covers intersect. *)

val is_descendant : t -> of_:t -> bool
(** [is_descendant d ~of_:a]: [d] occurs in [a]'s derivation (strictly
    below [a]).  Preference enforcement must spare such losers: the
    winner is built from them (e.g. a length-3 RBList contains the
    length-2 RBList it subsumes).

    Relies on ids growing with creation order, as the parser assigns
    them: a child always has a smaller id than its parents.  So
    [d.id >= a.id] answers [false] in O(1), and the walk never descends
    into a subtree whose root is older than [d]. *)

val subsumes : t -> t -> bool
(** [subsumes a b]: [a]'s cover is a superset of [b]'s. *)

val conditions : t -> Condition.t list
(** The conditions this instance's semantics denote ([S_cond] and
    [S_conds]; [[]] otherwise). *)

val collect_conditions : t -> (Condition.t * int list) list
(** Walk the subtree and return every distinct condition produced by a
    descendant whose semantics is [S_cond], paired with the token ids of
    the subtree that built it.  Used by the merger. *)

val size : t -> int
(** Number of nodes in the derivation tree rooted here (counting shared
    subtrees once per occurrence, as the paper does). *)

val tokens : t -> int list

val pp : Format.formatter -> t -> unit
(** One-line summary. *)

val pp_tree : Format.formatter -> t -> unit
(** Indented derivation tree, for debugging and the demo executables. *)
