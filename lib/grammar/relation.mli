(** Spatial relations and measures over instances: thin wrappers over
    {!Wqi_layout.Geometry} on each instance's bounding box.

    Grammars stated in {!Algebra} express their spatial guards as data
    ({!Hint.rel}) and never call these; the measures serve the
    algebra's compiled preferences (closest unit, association score),
    and {!left} serves guards written directly as OCaml closures over
    {!Production.make}. *)

val left : ?max_gap:int -> Instance.t -> Instance.t -> bool
(** [left a b]: [a] immediately left of [b], same visual row.
    Adjacency is implied (Section 4.1), hence the default gap bound. *)

val h_gap : Instance.t -> Instance.t -> int

val width : Instance.t -> int
val height : Instance.t -> int
