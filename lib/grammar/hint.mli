(** Declarative spatial hints on productions.

    A hint restates one spatial conjunct of a production's guard — a
    binary relation between two component slots — in a form the parser
    can see through: instead of enumerating every instance of a slot's
    symbol and letting the opaque guard closure reject the cross
    product, the engine uses the hint to probe a spatial index and
    enumerate only the candidates that can possibly satisfy it.

    {b Hints are an optimization, never a semantic filter.}  The guard
    remains the final authority on every candidate combination; the
    engine evaluates it exactly as it would without hints, so parses
    with and without hints are byte-identical (instance ids included).
    The soundness contract is one-directional: whenever the guard
    accepts a combination, every hint of the production must hold for
    it.  A hint that is not implied by the guard can change results; a
    missing hint only costs speed.  Grammars stated in {!Algebra} meet
    the contract by construction: {!Algebra.derived_hints} reads the
    hints off the guard's top-level positive relation conjuncts.  A
    production built directly with {!Production.make} and explicit
    hints must keep it by hand. *)

(** A binary spatial relation between two slots: the vocabulary of
    {!Algebra}'s spatial predicates.  The payload is the max-gap bound
    (for directional adjacency) or the alignment tolerance, in
    pixels. *)
type rel =
  | Left_of of int
  | Above of int
  | Below of int
  | Same_row
  | Same_column
  | Left_aligned of int
  | Top_aligned of int
  | Bottom_aligned of int

type t = {
  a : int;  (** first endpoint: a component slot index *)
  b : int;  (** second endpoint: a component slot index, [<> a] *)
  rel : rel;  (** relation asserted of (instance in [a], instance in [b]) *)
}

val holds_rel : rel -> Wqi_layout.Geometry.box -> Wqi_layout.Geometry.box -> bool
(** [holds_rel rel ba bb]: does the relation hold between the boxes?
    Delegates to the exact {!Wqi_layout.Geometry} predicate the guard
    would call, with the hint's stored gap/tolerance. *)

(** A conservative search region for one relation endpoint given the
    box bound to the other endpoint.  [y]/[x] are closed intervals the
    candidate's y-span/x-span must {e intersect}; [None] leaves the
    axis unconstrained. *)
type region = { y : (int * int) option; x : (int * int) option }

val unconstrained : region

val region : rel -> anchor:Wqi_layout.Geometry.box -> anchor_is_first:bool -> region
(** [region rel ~anchor ~anchor_is_first] over-approximates where the
    free endpoint can be: if the relation holds (anchor in the hint's
    [a] slot when [anchor_is_first], in [b] otherwise), the candidate's
    spans intersect the returned intervals.  The converse is not
    guaranteed — callers must re-check {!holds_rel} (and the guard). *)

val pp_rel : Format.formatter -> rel -> unit

val pp : Format.formatter -> t -> unit
