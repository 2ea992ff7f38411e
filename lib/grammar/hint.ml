module Geometry = Wqi_layout.Geometry

type rel =
  | Left_of of int
  | Above of int
  | Below of int
  | Same_row
  | Same_column
  | Left_aligned of int
  | Top_aligned of int
  | Bottom_aligned of int

type t = { a : int; b : int; rel : rel }

let holds_rel rel ba bb =
  match rel with
  | Left_of max_gap -> Geometry.left_of ~max_gap ba bb
  | Above max_gap -> Geometry.above ~max_gap ba bb
  | Below max_gap -> Geometry.below ~max_gap ba bb
  | Same_row -> Geometry.same_row ba bb
  | Same_column -> Geometry.same_column ba bb
  | Left_aligned tolerance -> Geometry.left_aligned ~tolerance ba bb
  | Top_aligned tolerance -> Geometry.top_aligned ~tolerance ba bb
  | Bottom_aligned tolerance -> Geometry.bottom_aligned ~tolerance ba bb

type region = { y : (int * int) option; x : (int * int) option }

let unconstrained = { y = None; x = None }

(* Conservative search regions, used to drive index probes.  The
   contract (see the .mli) is one-directional: if the relation holds
   between anchor and candidate, then the candidate's y-span intersects
   the [y] interval and its x-span intersects the [x] interval.  The
   converse need not hold — the engine re-checks the exact relation (and
   then the guard) on every candidate the probe admits. *)
let region rel ~anchor:(a : Geometry.box) ~anchor_is_first =
  match (rel, anchor_is_first) with
  | Left_of gap, true ->
    (* candidate.x1 ∈ [a.x2-2, a.x2+gap]; v_overlap > 0 *)
    { y = Some (a.y1, a.y2); x = Some (a.x2 - 2, a.x2 + gap) }
  | Left_of gap, false ->
    { y = Some (a.y1, a.y2); x = Some (a.x1 - gap, a.x1 + 2) }
  | Above gap, true ->
    { y = Some (a.y2 - 2, a.y2 + gap); x = Some (a.x1, a.x2) }
  | Above gap, false ->
    { y = Some (a.y1 - gap, a.y1 + 2); x = Some (a.x1, a.x2) }
  | Below gap, true ->
    { y = Some (a.y1 - gap, a.y1 + 2); x = Some (a.x1, a.x2) }
  | Below gap, false ->
    { y = Some (a.y2 - 2, a.y2 + gap); x = Some (a.x1, a.x2) }
  | Same_row, _ -> { y = Some (a.y1, a.y2); x = None }
  | Same_column, _ -> { y = None; x = Some (a.x1, a.x2) }
  | Left_aligned tol, _ -> { y = None; x = Some (a.x1 - tol, a.x1 + tol) }
  | Top_aligned tol, _ -> { y = Some (a.y1 - tol, a.y1 + tol); x = None }
  | Bottom_aligned tol, _ -> { y = Some (a.y2 - tol, a.y2 + tol); x = None }

let pp_rel ppf = function
  | Left_of g -> Fmt.pf ppf "left_of<=%d" g
  | Above g -> Fmt.pf ppf "above<=%d" g
  | Below g -> Fmt.pf ppf "below<=%d" g
  | Same_row -> Fmt.string ppf "same_row"
  | Same_column -> Fmt.string ppf "same_column"
  | Left_aligned t -> Fmt.pf ppf "left_aligned~%d" t
  | Top_aligned t -> Fmt.pf ppf "top_aligned~%d" t
  | Bottom_aligned t -> Fmt.pf ppf "bottom_aligned~%d" t

let pp ppf h = Fmt.pf ppf "%a(#%d, #%d)" pp_rel h.rel h.a h.b
