(** Deterministic rendering metrics.

    Substitutes for the browser layout engine the paper used (IE's DOM
    API): a monospace font model and fixed intrinsic widget sizes.  Only
    relative spatial relations matter to the parser, so any consistent
    metric reproduces the paper's behaviour. *)

val char_width : int
(** Advance width of one character, in pixels. *)

val line_height : int
(** Height of a text line box. *)

val text_height : int
(** Height of a rendered text run (slightly below {!line_height}). *)

val word_spacing : int
(** Width of an inter-word space. *)

val page_width : int
(** Default page width used when none is specified. *)

val text_width : string -> int
(** [text_width s] is the rendered width of a text run.  Multi-byte UTF-8
    sequences count as a single character cell. *)

val int_attr : string -> default:int -> Wqi_html.Dom.t -> int
(** [int_attr key ~default node] is the attribute [key] of [node] read as
    a non-negative integer (negative values clamp to 0), or [default]
    when it is absent or not an integer. *)

val widget_size : Wqi_html.Dom.t -> (int * int) option
(** [widget_size node] is the intrinsic [(width, height)] of a form
    widget or image element, or [None] when [node] is not a widget (or is
    an invisible one such as [<input type="hidden">]).  Sizes honour the
    [size], [cols], [rows], [width], [height] and [value] attributes as
    browsers do. *)
