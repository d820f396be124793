(* A single-process HTTP/1.1 load generator: at most [max_conns]
   keep-alive connections multiplexed with [Unix.select], no threads and
   no external tools.

   - Closed loop: every connection sends its next request as soon as the
     previous answer arrives.
   - Open loop: request j is due at t0 + j/rate; it goes out on the first
     free connection, and its latency runs from when it was due, so a
     stall is charged to every request it delays.  How late each request
     left is reported separately, so a slow generator shows apart from a
     slow daemon.

   A response with [Connection: close] is not a failure: the connection
   is reopened for the next request.  A non-200 status, a timeout, a
   connection lost mid-request or a failed body check is. *)

let max_conns = 2
let request_timeout = 30.0

type request = {
  kind : string;  (** route class, e.g. "shapley" *)
  meth : string;
  target : string;
  body : string;
  values : int;  (** exact Shapley values a correct answer carries *)
  check : string -> bool;  (** validates the response body *)
}

type completion = {
  req : request;
  ok : bool;
  due : float;
  sent : float;
  done_ : float;
}

type conn = {
  mutable fd : Unix.file_descr option;
  inbuf : Buffer.t;
  mutable pending : (request * float * float) option;  (** req, due, sent *)
}

let render ~host ~port r =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    r.meth r.target host port (String.length r.body) r.body

let connect ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let close_conn c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  Buffer.clear c.inbuf

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let lower = String.lowercase_ascii

(* A complete response in [buf]: (status, body, connection-close?). *)
let parse_response buf =
  let s = Buffer.contents buf in
  match Refs.find_sub s "\r\n\r\n" with
  | None -> None
  | Some h ->
    let head = Util.lines (String.sub s 0 h) |> List.map String.trim in
    let status =
      match String.split_on_char ' ' (List.hd head) with
      | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
      | _ -> 0
    in
    let header name =
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when lower (String.sub l 0 i) = name ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        (List.tl head)
    in
    let len = Option.value ~default:0 (Option.bind (header "content-length") int_of_string_opt) in
    if String.length s < h + 4 + len then None
    else
      Some
        ( status,
          String.sub s (h + 4) len,
          (match header "connection" with Some v -> lower v = "close" | None -> false) )

type t = {
  host : string;
  port : int;
  conns : conn array;
  chunk : Bytes.t;
  mutable reconnects : int;
}

let create ~host ~port =
  { host; port; chunk = Bytes.create 65536; reconnects = 0;
    conns = Array.init max_conns (fun _ -> { fd = None; inbuf = Buffer.create 4096; pending = None }) }

let close t = Array.iter close_conn t.conns

(* Send [r] on idle connection [c]; a failed send is a completion with
   [ok = false]. *)
let send t c r ~due ~emit =
  let sent = Util.now () in
  match
    (match c.fd with
     | Some fd -> fd
     | None ->
       let fd = connect ~host:t.host ~port:t.port in
       c.fd <- Some fd;
       fd)
  with
  | fd -> (
      try
        write_all fd (render ~host:t.host ~port:t.port r) 0;
        c.pending <- Some (r, due, sent)
      with Unix.Unix_error _ ->
        close_conn c;
        emit { req = r; ok = false; due; sent; done_ = Util.now () })
  | exception Unix.Unix_error _ ->
    close_conn c;
    emit { req = r; ok = false; due; sent; done_ = Util.now () }

(* Wait up to [timeout] seconds for responses; emit each completion. *)
let pump t ~timeout ~emit =
  let busy = Array.to_list t.conns |> List.filter (fun c -> c.pending <> None && c.fd <> None) in
  let fds = List.filter_map (fun c -> c.fd) busy in
  let ready =
    if fds = [] then begin
      if timeout > 0.0 then Unix.sleepf timeout;
      []
    end
    else
      match Unix.select fds [] [] (Float.max 0.0 timeout) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let now = Util.now () in
  List.iter
    (fun c ->
      match (c.fd, c.pending) with
      | Some fd, Some (r, due, sent) ->
        let fail () =
          close_conn c;
          c.pending <- None;
          emit { req = r; ok = false; due; sent; done_ = Util.now () }
        in
        if List.mem fd ready then begin
          match Unix.read fd t.chunk 0 (Bytes.length t.chunk) with
          | 0 -> fail ()
          | n -> (
              Buffer.add_subbytes c.inbuf t.chunk 0 n;
              match parse_response c.inbuf with
              | None -> ()
              | Some (status, body, close) ->
                let done_ = Util.now () in
                Buffer.clear c.inbuf;
                c.pending <- None;
                if close then begin
                  close_conn c;
                  t.reconnects <- t.reconnects + 1
                end;
                emit { req = r; ok = status = 200 && r.check body; due; sent; done_ })
          | exception Unix.Unix_error _ -> fail ()
        end
        else if now -. sent > request_timeout then fail ()
      | _ -> ())
    busy

let busy t = Array.exists (fun c -> c.pending <> None) t.conns
let idle_conn t = Array.find_opt (fun c -> c.pending = None) t.conns

(* Closed loop over [next ()] until [stop ()] says so; [next] returns
   the j-th request of the mix. *)
let closed t ~next ~stop ~emit =
  let rec loop () =
    let rec fill () =
      match idle_conn t with
      | Some c when not (stop ()) ->
        send t c (next ()) ~due:(Util.now ()) ~emit;
        fill ()
      | _ -> ()
    in
    fill ();
    if busy t then begin
      pump t ~timeout:1.0 ~emit;
      loop ()
    end
  in
  loop ()

(* Open loop: [count] requests at [rate] per second. *)
let open_ t ~rate ~count ~next ~emit =
  let t0 = Util.now () in
  let due j = t0 +. (float_of_int j /. rate) in
  let rec loop j =
    if j < count || busy t then begin
      let now = Util.now () in
      if j < count && due j <= now then
        match idle_conn t with
        | Some c ->
          send t c (next ()) ~due:(due j) ~emit;
          loop (j + 1)
        | None ->
          pump t ~timeout:1.0 ~emit;
          loop j
      else begin
        let wait = if j < count then due j -. now else 1.0 in
        pump t ~timeout:wait ~emit;
        loop j
      end
    end
  in
  loop 0
