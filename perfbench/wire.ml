(* A minimal HTTP/1.1 keep-alive client, written against the socket API
   rather than the program's own client, so the load generator measures
   the server and not code a change under test could also touch.

   One connection per client.  A response carrying [Connection: close]
   (the server does this after [keepalive_max] requests) closes the
   socket; the next request reconnects and is counted as a reconnect. *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

type client = {
  port : int;
  timeout_s : float;
  mutable conn : conn option;
  mutable connects : int;
}

type response = {
  status : int;
  close : bool;
  id : string;  (* the X-Request-Id the server answered with *)
  body : string;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let client ~port ~timeout_s = { port; timeout_s; conn = None; connects = 0 }

(* Connections made after the first: each one follows a server-side
   close (or a transport error that dropped the previous one). *)
let reconnects c = max 0 (c.connects - 1)

let connect c =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO c.timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO c.timeout_s;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port))
   with e ->
     Unix.close fd;
     raise e);
  c.connects <- c.connects + 1;
  let conn = { fd; buf = Bytes.create 65536; pos = 0; len = 0 } in
  c.conn <- Some conn;
  conn

let close c =
  match c.conn with
  | None -> ()
  | Some conn ->
      c.conn <- None;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ())

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let refill conn =
  if conn.pos >= conn.len then begin
    let n = Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) in
    if n = 0 then failwith "connection closed by server";
    conn.pos <- 0;
    conn.len <- n
  end

let read_line conn =
  let b = Buffer.create 64 in
  let rec go () =
    refill conn;
    let c = Bytes.get conn.buf conn.pos in
    conn.pos <- conn.pos + 1;
    if c = '\n' then begin
      let s = Buffer.contents b in
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
    end
    else begin
      Buffer.add_char b c;
      go ()
    end
  in
  go ()

let read_body conn n =
  let out = Bytes.create n in
  let rec go off =
    if off < n then begin
      refill conn;
      let k = min (n - off) (conn.len - conn.pos) in
      Bytes.blit conn.buf conn.pos out off k;
      conn.pos <- conn.pos + k;
      go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string out

let read_response conn =
  let status =
    match String.split_on_char ' ' (read_line conn) with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some s -> s
        | None -> failwith "malformed status line")
    | _ -> failwith "malformed status line"
  in
  let rec headers len close id =
    match read_line conn with
    | "" -> (len, close, id)
    | line -> (
        match String.index_opt line ':' with
        | None -> headers len close id
        | Some i -> (
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            match String.lowercase_ascii (String.sub line 0 i) with
            | "content-length" -> headers (int_of_string_opt value) close id
            | "connection" -> headers len (String.lowercase_ascii value = "close") id
            | "x-request-id" -> headers len close value
            | _ -> headers len close id))
  in
  let len, close, id = headers None false "" in
  match len with
  | None -> failwith "response without Content-Length"
  | Some n -> { status; close; id; body = read_body conn n }

(* Send one request (its exact bytes) and read the response.  Any
   transport failure drops the connection and comes back as [Error]. *)
let exchange c request =
  match
    let conn = match c.conn with Some conn -> conn | None -> connect c in
    write_all conn.fd request 0 (String.length request);
    read_response conn
  with
  | resp ->
      if resp.close then close c;
      Ok resp
  | exception (Unix.Unix_error (e, _, _)) ->
      close c;
      Error (Unix.error_message e)
  | exception Failure msg ->
      close c;
      Error msg
