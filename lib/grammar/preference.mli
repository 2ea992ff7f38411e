(** Preferences of a 2P grammar (Definition 3): ⟨Conflicting instances,
    Conflicting condition, Winning criteria⟩.

    A preference arbitrates between a [winner]-typed instance [v1] and a
    [loser]-typed instance [v2] whenever [conflict v1 v2] holds; if
    [wins v1 v2] also holds, [v2] is invalidated.  The paper's R1 ("an
    RBU beats an Attr competing for a text token") has an unconditional
    winning criterion; R2 ("the longer of two subsuming RBLists wins")
    is conditional. *)

(** What the parser may assume about a preference's closures. *)
type kind =
  | Opaque  (** nothing: [conflict] and [wins] are arbitrary *)
  | Subsume
      (** the algebra's [K_subsume]: [conflict v1 v2] is "[v1]'s cover
          contains [v2]'s" and [wins v1 v2] is "[v1] covers more
          tokens", so together they hold exactly when [v2]'s cover is a
          proper subset of [v1]'s.  The parser may then test that on
          raw cover words first, and prune such a same-symbol
          preference inside the symbol's fix-point. *)

type t = {
  name : string;
  winner : Symbol.t;   (** type of [v1] *)
  loser : Symbol.t;    (** type of [v2] *)
  conflict : Instance.t -> Instance.t -> bool;
      (** The condition U, evaluated as [conflict v1 v2].  It need not
          include cover intersection; the parser tests that first. *)
  wins : Instance.t -> Instance.t -> bool;
      (** The criterion W for picking [v1] as winner. *)
  kind : kind;
}

val make :
  name:string ->
  winner:Symbol.t ->
  loser:Symbol.t ->
  ?conflict:(Instance.t -> Instance.t -> bool) ->
  ?wins:(Instance.t -> Instance.t -> bool) ->
  ?kind:kind ->
  unit ->
  t
(** [conflict] defaults to "covers intersect" (always true given the
    parser's pre-test); [wins] defaults to unconditional; [kind] to
    [Opaque].  A caller passing [~kind:Subsume] must pass the closures
    that kind describes. *)

val same_symbol : t -> bool
(** Winner and loser types coincide (e.g. R2 on RBList). *)

val pp : Format.formatter -> t -> unit
