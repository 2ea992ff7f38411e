(* Open-loop HTTP load generator for wqi_serve: one process, a seeded
   Poisson schedule, at most [conns] keep-alive connections, latency
   timed from each request's due time.  A request that finds every
   connection busy waits in the generator; that wait counts in its
   latency, so a stalled server shows as latency before it shows as
   lost throughput. *)

let now = Wqi_budget.Budget.now_s

type request = {
  wire : string;    (** the whole HTTP request, built once per document *)
  expect : string;  (** the exact response body required *)
}

type conn = {
  mutable fd : Unix.file_descr option;
  mutable pending : string;  (** bytes read, not yet parsed *)
  mutable busy : int;        (** index of the request in flight, or -1 *)
  mutable free_at : float;   (** when the connection last became free *)
}

type point = {
  sent : int;
  failed : int;
  latencies : float array;
      (** seconds from due to response, by request; [nan] where the
          request failed *)
  lags : float array;       (** generator lateness, every request sent *)
  backlog : int;            (** requests still unsent when the last fell due *)
  dispositions : (string * int) list;  (** x-wqi-cache header counts *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Index of the first "\r\n\r\n" in [s], or -1. *)
let header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then -1
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then i
    else go (i + 1)
  in
  go 0

(* One complete response at the head of [s]:
   [Some (status, headers, body, rest)], or [None] if incomplete. *)
let parse_response s =
  match header_end s with
  | -1 -> None
  | h ->
    let lines = String.split_on_char '\n' (String.sub s 0 h) in
    let status =
      match String.split_on_char ' ' (List.hd lines) with
      | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:0
      | _ -> 0
    in
    let headers =
      List.filter_map
        (fun l ->
           match String.index_opt l ':' with
           | None -> None
           | Some i ->
             Some
               ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                 String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
        (List.tl lines)
    in
    let len =
      Option.bind (List.assoc_opt "content-length" headers) int_of_string_opt
      |> Option.value ~default:0
    in
    let start = h + 4 in
    if String.length s < start + len then None
    else
      Some
        ( status,
          headers,
          String.sub s start len,
          String.sub s (start + len) (String.length s - start - len) )

let request_bytes ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

(* A one-shot request on its own connection, read to completion. *)
let simple ~port ~meth ~path body =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       write_all fd (request_bytes ~meth ~path body) 0;
       let buf = Bytes.create 65536 in
       let rec loop acc =
         match parse_response acc with
         | Some (status, _, body, _) -> Some (status, body)
         | None ->
           let n = Unix.read fd buf 0 (Bytes.length buf) in
           if n = 0 then None else loop (acc ^ Bytes.sub_string buf 0 n)
       in
       loop "")

(* [run ~port ~conns ~timeout_s ~due reqs] sends [reqs.(i)] at absolute
   time [due.(i)] (ascending). *)
let run ~port ~conns ~timeout_s ~due (reqs : request array) =
  let n = Array.length reqs in
  let t_start = now () in
  let cs =
    Array.init conns (fun _ ->
        { fd = None; pending = ""; busy = -1; free_at = t_start })
  in
  let sent_at = Array.make n infinity in
  let lat = Array.make n nan and lags = ref [] in
  let failed = ref 0 and sent = ref 0 and done_ = ref 0 in
  let disp = Hashtbl.create 4 in
  let buf = Bytes.create 65536 in
  let drop c =
    (match c.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
    c.fd <- None;
    c.pending <- "";
    if c.busy >= 0 then begin
      incr failed;
      incr done_;
      c.busy <- -1
    end;
    c.free_at <- now ()
  in
  let send c i =
    let t = now () in
    sent_at.(i) <- t;
    lags := (t -. Float.max due.(i) c.free_at) :: !lags;
    incr sent;
    c.busy <- i;
    try
      let fd =
        match c.fd with
        | Some fd -> fd
        | None ->
          let fd = connect port in
          c.fd <- Some fd;
          fd
      in
      write_all fd reqs.(i).wire 0
    with Unix.Unix_error _ -> drop c
  in
  let rec complete c =
    match parse_response c.pending with
    | None -> ()
    | Some (status, headers, body, rest) ->
      let t = now () in
      c.pending <- rest;
      let i = c.busy in
      if i >= 0 then begin
        c.busy <- -1;
        c.free_at <- t;
        incr done_;
        let d = Option.value ~default:"-" (List.assoc_opt "x-wqi-cache" headers) in
        Hashtbl.replace disp d (1 + Option.value ~default:0 (Hashtbl.find_opt disp d));
        if status = 200 && String.equal body reqs.(i).expect then
          lat.(i) <- t -. due.(i)
        else incr failed
      end;
      complete c
  in
  let next = ref 0 in
  while !done_ < n do
    let t = now () in
    (* Dispatch everything due onto free connections. *)
    Array.iter
      (fun c ->
         if c.busy < 0 && !next < n && due.(!next) <= t then begin
           send c !next;
           incr next
         end)
      cs;
    (* Time out stuck requests. *)
    Array.iter
      (fun c -> if c.busy >= 0 && t -. sent_at.(c.busy) > timeout_s then drop c)
      cs;
    let fds =
      Array.fold_left
        (fun acc c -> match c.fd with Some fd when c.busy >= 0 -> fd :: acc | _ -> acc)
        [] cs
    in
    let wait =
      if !next < n && Array.exists (fun c -> c.busy < 0) cs then
        Float.max 0. (due.(!next) -. now ())
      else 0.05
    in
    if fds = [] then (if wait > 0. then Unix.sleepf wait)
    else begin
      let readable, _, _ =
        try Unix.select fds [] [] wait with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
           let c = Option.get (Array.find_opt (fun c -> c.fd = Some fd) cs) in
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> drop c
           | k ->
             c.pending <- c.pending ^ Bytes.sub_string buf 0 k;
             complete c
           | exception Unix.Unix_error _ -> drop c)
        readable
    end
  done;
  Array.iter (fun c -> match c.fd with Some fd -> Unix.close fd | None -> ()) cs;
  let last_due = if n = 0 then t_start else due.(n - 1) in
  let backlog = Array.fold_left (fun acc s -> if s > last_due then acc + 1 else acc) 0 sent_at in
  { sent = !sent;
    failed = !failed;
    latencies = lat;
    lags = Array.of_list !lags;
    backlog;
    dispositions = Hashtbl.fold (fun k v acc -> (k, v) :: acc) disp [] }

(* Prometheus text: "name{labels} value" lines into (series, value). *)
let scrape ~port =
  match simple ~port ~meth:"GET" ~path:"/metrics" "" with
  | Some (200, text) ->
    List.filter_map
      (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             Option.map
               (fun v -> (String.sub line 0 i, v))
               (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))
      (String.split_on_char '\n' text)
  | _ -> []
