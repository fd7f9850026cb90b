(* See the interface. *)

let request_magic = "IRQ1"
let response_magic = "IRS1"
let max_header_bytes = 64 * 1024

let put_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode_header kvs =
  let b = Buffer.create 64 in
  List.iter
    (fun (k, v) ->
      if k = "" || String.contains k '=' || String.contains k '\n' then
        invalid_arg (Printf.sprintf "Wire.encode_header: bad key %S" k);
      if String.contains v '\n' then
        invalid_arg (Printf.sprintf "Wire.encode_header: value of %S has a newline" k);
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    kvs;
  Buffer.contents b

let decode_header s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | None -> None
         | Some i ->
             Some
               ( String.sub line 0 i,
                 String.sub line (i + 1) (String.length line - i - 1) ))

(* Later duplicates win: a client repeating a key means the last value. *)
let header_get kvs k =
  List.fold_left (fun acc (k', v) -> if k' = k then Some v else acc) None kvs

let encode_request ~header ~payload =
  let h = encode_header header in
  let b = Buffer.create (16 + String.length h + String.length payload) in
  Buffer.add_string b request_magic;
  put_u32 b (String.length h);
  put_u32 b (String.length payload);
  Buffer.add_string b h;
  Buffer.add_string b payload;
  Buffer.contents b

let encode_response ~header ~diags ~output =
  let h = encode_header header in
  let b =
    Buffer.create
      (16 + String.length h + String.length diags + String.length output)
  in
  Buffer.add_string b response_magic;
  put_u32 b (String.length h);
  put_u32 b (String.length diags);
  put_u32 b (String.length output);
  Buffer.add_string b h;
  Buffer.add_string b diags;
  Buffer.add_string b output;
  Buffer.contents b

let decode_response s =
  let len = String.length s in
  if len < 16 then Error "truncated response frame"
  else if String.sub s 0 4 <> response_magic then
    Error "bad response magic"
  else
    let hlen = get_u32 s 4 and dlen = get_u32 s 8 and olen = get_u32 s 12 in
    if hlen < 0 || dlen < 0 || olen < 0 || 16 + hlen + dlen + olen > len then
      Error "truncated response frame"
    else
      let header = decode_header (String.sub s 16 hlen) in
      let diags = String.sub s (16 + hlen) dlen in
      let output = String.sub s (16 + hlen + dlen) olen in
      Ok (header, diags, output)

(* ------------------------------------------------------------------ *)
(* Incremental request reader                                          *)
(* ------------------------------------------------------------------ *)

type event =
  | Frame of {
      header : (string * string) list;
      payload : string;
      oversized : bool;
    }
  | Corrupt of string

(* [Discarding]: the header of an oversized request was decoded; its
   payload is being consumed and dropped as it arrives, so the buffer
   never grows past one read chunk however large the declared length. *)
type state =
  | Scanning
  | Discarding of { header : (string * string) list; mutable left : int }
  | Broken of string

type reader = {
  max_payload : int;
  mutable buf : Bytes.t;  (* unconsumed bytes are [pos, len) *)
  mutable pos : int;
  mutable len : int;
  ready : event Queue.t;
  mutable state : state;
}

let reader ?(max_payload = 0) () =
  {
    max_payload;
    buf = Bytes.empty;
    pos = 0;
    len = 0;
    ready = Queue.create ();
    state = Scanning;
  }

let buffered r = r.len - r.pos
let u32_at r off = get_u32 (Bytes.unsafe_to_string r.buf) (r.pos + off)

let take r n =
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let rec step r =
  match r.state with
  | Broken _ -> ()
  | Discarding d ->
      let avail = buffered r in
      let n = min avail d.left in
      r.pos <- r.pos + n;
      d.left <- d.left - n;
      if d.left = 0 then begin
        Queue.add (Frame { header = d.header; payload = ""; oversized = true })
          r.ready;
        r.state <- Scanning;
        step r
      end
  | Scanning ->
      if buffered r >= 12 then begin
        let m = Bytes.sub_string r.buf r.pos 4 in
        if m <> request_magic then begin
          let msg =
            Printf.sprintf "bad request magic %S (protocol error)" m
          in
          r.state <- Broken msg;
          Queue.add (Corrupt msg) r.ready
        end
        else
          let hlen = u32_at r 4 in
          let plen = u32_at r 8 in
          if hlen < 0 || hlen > max_header_bytes then begin
            let msg =
              Printf.sprintf "request header of %d bytes exceeds the %d-byte cap"
                hlen max_header_bytes
            in
            r.state <- Broken msg;
            Queue.add (Corrupt msg) r.ready
          end
          else if plen < 0 then begin
            let msg = "negative request payload length" in
            r.state <- Broken msg;
            Queue.add (Corrupt msg) r.ready
          end
          else if buffered r >= 12 + hlen then begin
            let oversized = r.max_payload > 0 && plen > r.max_payload in
            if oversized then begin
              r.pos <- r.pos + 12;
              let header = decode_header (take r hlen) in
              r.state <- Discarding { header; left = plen };
              step r
            end
            else if buffered r >= 12 + hlen + plen then begin
              r.pos <- r.pos + 12;
              let header = decode_header (take r hlen) in
              let payload = take r plen in
              Queue.add (Frame { header; payload; oversized = false }) r.ready;
              step r
            end
          end
      end

(* Append after dropping consumed bytes. When that leaves too little room
   the buffer doubles, or jumps to the end of a frame whose prefix has
   arrived once the next doubling would pass it: a large request costs at
   most about twice its size, and a declared length alone allocates
   nothing. A buffer over 1 MiB is released once all of it is consumed. *)
let feed_bytes r b ~off ~len =
  (match r.state with
  | Broken _ -> ()
  | _ when len > 0 ->
      let live = buffered r in
      if live = 0 then begin
        r.pos <- 0;
        r.len <- 0;
        if Bytes.length r.buf > 1 lsl 20 then r.buf <- Bytes.empty
      end;
      if r.len + len > Bytes.length r.buf then begin
        let need = live + len in
        let frame =
          match r.state with
          | Scanning when live >= 12 -> 12 + u32_at r 4 + u32_at r 8
          | _ -> max_int
        in
        let dst =
          if need <= Bytes.length r.buf then r.buf
          else Bytes.create (if frame <= 4 * need then max need frame else 2 * need)
        in
        Bytes.blit r.buf r.pos dst 0 live;
        r.buf <- dst;
        r.pos <- 0;
        r.len <- live
      end;
      Bytes.blit b off r.buf r.len len;
      r.len <- r.len + len
  | _ -> ());
  step r

let feed r s =
  feed_bytes r (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let poll r =
  match Queue.take_opt r.ready with
  | Some e -> Some e
  | None -> ( match r.state with Broken m -> Some (Corrupt m) | _ -> None)
