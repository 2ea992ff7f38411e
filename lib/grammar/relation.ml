module Geometry = Wqi_layout.Geometry

let box (i : Instance.t) = i.box

let left ?max_gap a b = Geometry.left_of ?max_gap (box a) (box b)

let h_gap a b = Geometry.h_gap (box a) (box b)

let width i = Geometry.width (box i)
let height i = Geometry.height (box i)
