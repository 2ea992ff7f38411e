type kind = Opaque | Subsume

type t = {
  name : string;
  winner : Symbol.t;
  loser : Symbol.t;
  conflict : Instance.t -> Instance.t -> bool;
  wins : Instance.t -> Instance.t -> bool;
  kind : kind;
}

let make ~name ~winner ~loser ?(conflict = fun _ _ -> true)
    ?(wins = fun _ _ -> true) ?(kind = Opaque) () =
  { name; winner; loser; conflict; wins; kind }

let same_symbol r = Symbol.equal r.winner r.loser

let pp ppf r =
  Fmt.pf ppf "%s: %a beats %a" r.name Symbol.pp r.winner Symbol.pp r.loser
