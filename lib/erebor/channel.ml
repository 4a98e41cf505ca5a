module Wire = struct
  type t = { queue : bytes Queue.t; mutable log : bytes list }

  let create () = { queue = Queue.create (); log = [] }

  let send t msg =
    let copy = Bytes.copy msg in
    Queue.add copy t.queue;
    t.log <- copy :: t.log

  let recv t = Queue.take_opt t.queue
  let snoop t = List.rev t.log
end

let le64 n =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr ((n lsr (8 * i)) land 0xff))
  done;
  b

(* A le64 word as a non-negative int, or -1 when it needs more than 62
   bits. Folding all eight bytes into a 63-bit int would silently drop bit
   63, so a length word with that bit set would decode as a small length
   that re-encodes to different bytes. Every field read here (lengths,
   trace and span ids) is non-negative when well formed. *)
let read_le64 b off =
  if Char.code (Bytes.get b (off + 7)) land 0xc0 <> 0 then -1
  else begin
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
    done;
    !v
  end

let pad_to_bucket ~bucket data =
  if bucket <= 0 then invalid_arg "pad_to_bucket: bucket must be positive";
  let body = Bytes.length data + 8 in
  let padded = (body + bucket - 1) / bucket * bucket in
  let out = Bytes.make padded '\000' in
  Bytes.blit (le64 (Bytes.length data)) 0 out 0 8;
  Bytes.blit data 0 out 8 (Bytes.length data);
  out

let unpad data =
  if Bytes.length data < 8 then Error "unpad: short buffer"
  else begin
    let len = read_le64 data 0 in
    (* Compare against the room left rather than [len + 8]: a hostile
       length near [max_int] would wrap the sum negative and pass. *)
    if len < 0 || len > Bytes.length data - 8 then Error "unpad: bad length"
    else Ok (Bytes.sub data 8 len)
  end

let encode_sealed { Crypto.Aead.nonce; ciphertext; tag } =
  Bytes.concat Bytes.empty [ nonce; tag; le64 (Bytes.length ciphertext); ciphertext ]

let decode_sealed b =
  if Bytes.length b < 12 + 32 + 8 then Error "decode_sealed: short"
  else begin
    let nonce = Bytes.sub b 0 12 in
    let tag = Bytes.sub b 12 32 in
    let len = read_le64 b 44 in
    if len < 0 || len <> Bytes.length b - 52 then Error "decode_sealed: bad length"
    else Ok { Crypto.Aead.nonce; ciphertext = Bytes.sub b 52 len; tag }
  end

(* Trace-context header, carried *inside* the seal so the untrusted proxy
   learns nothing from it: magic "ERTC1", then le64 trace id, le64 parent
   span id, and a flags byte (bit 0 = sampled). The server strips it before
   handing the plaintext to the monitor, so payload-length-based cycle
   charges are identical with tracing on or off. *)
let ctx_magic = "ERTC1"
let ctx_header_len = String.length ctx_magic + 8 + 8 + 1

let encode_ctx (cx : Obs.Request.ctx) data =
  let h = Bytes.create ctx_header_len in
  Bytes.blit_string ctx_magic 0 h 0 5;
  Bytes.blit (le64 cx.Obs.Request.trace_id) 0 h 5 8;
  Bytes.blit (le64 cx.Obs.Request.span_id) 0 h 13 8;
  Bytes.set h 21 (if cx.Obs.Request.sampled then '\001' else '\000');
  Bytes.cat h data

(* Only canonical headers decode: ids that fit a non-negative int and a
   flags byte of 0 or 1, so a decoded header re-encodes to the same bytes. *)
let decode_ctx data =
  if
    Bytes.length data >= ctx_header_len
    && Bytes.sub_string data 0 (String.length ctx_magic) = ctx_magic
  then
    let trace_id = read_le64 data 5 and span_id = read_le64 data 13 in
    match Bytes.get data 21 with
    | ('\000' | '\001') as flags when trace_id >= 0 && span_id >= 0 ->
        Some
          ( { Obs.Request.trace_id; span_id; sampled = flags = '\001' },
            Bytes.sub data ctx_header_len (Bytes.length data - ctx_header_len) )
    | _ -> None
  else None

let serialize_report (r : Tdx.Attest.report) =
  Bytes.concat Bytes.empty
    (r.Tdx.Attest.mrtd
    :: (Array.to_list r.Tdx.Attest.rtmrs @ [ r.Tdx.Attest.report_data; r.Tdx.Attest.mac ]))

let deserialize_report b =
  let expect = 32 + (4 * 32) + 64 + 32 in
  if Bytes.length b <> expect then Error "report: bad size"
  else
    Ok
      {
        Tdx.Attest.mrtd = Bytes.sub b 0 32;
        rtmrs = Array.init 4 (fun i -> Bytes.sub b (32 + (32 * i)) 32);
        report_data = Bytes.sub b 160 64;
        mac = Bytes.sub b 224 32;
      }

let transcript_hash ~client_pub ~server_pub =
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed_string ctx "erebor-channel-v1";
  Crypto.Sha256.feed ctx client_pub;
  Crypto.Sha256.feed ctx server_pub;
  Crypto.Sha256.digest ctx

let derive_keys ~secret =
  let okm = Crypto.Hkdf.expand ~prk:secret ~info:"erebor-session-keys" ~len:64 in
  (Bytes.sub okm 0 32, Bytes.sub okm 32 32) (* client->server, server->client *)

let fresh_nonce rng = Crypto.Drbg.bytes rng 12

module Client = struct
  type t = {
    rng : Crypto.Drbg.t;
    hw_key : bytes;
    expected_mrtd : bytes;
    keypair : Crypto.Dh.keypair;
    mutable c2s : bytes;
    mutable s2c : bytes;
    mutable established : bool;
  }

  let create ~rng ~hw_key ~expected_mrtd =
    {
      rng;
      hw_key;
      expected_mrtd;
      keypair = Crypto.Dh.generate rng;
      c2s = Bytes.empty;
      s2c = Bytes.empty;
      established = false;
    }

  let hello t = Crypto.Dh.public_bytes t.keypair

  let finish t ~server_hello =
    if Bytes.length server_hello < 192 then Error "server hello: short"
    else begin
      let server_pub = Bytes.sub server_hello 0 192 in
      match deserialize_report (Bytes.sub server_hello 192 (Bytes.length server_hello - 192)) with
      | Error e -> Error e
      | Ok report ->
          if not (Tdx.Attest.verify ~hw_key:t.hw_key report) then
            Error "attestation: bad report MAC"
          else if not (Bytes.equal report.Tdx.Attest.mrtd t.expected_mrtd) then
            Error "attestation: unexpected boot measurement"
          else begin
            let binding =
              transcript_hash ~client_pub:(Crypto.Dh.public_bytes t.keypair) ~server_pub
            in
            let expected_rd = Bytes.make 64 '\000' in
            Bytes.blit binding 0 expected_rd 0 32;
            if not (Bytes.equal report.Tdx.Attest.report_data expected_rd) then
              Error "attestation: report not bound to this handshake"
            else
              match Crypto.Dh.shared_secret t.keypair ~peer_public:server_pub with
              | None -> Error "handshake: degenerate server public value"
              | Some secret ->
                  let c2s, s2c = derive_keys ~secret in
                  t.c2s <- c2s;
                  t.s2c <- s2c;
                  t.established <- true;
                  Ok ()
          end
    end

  let seal_request ?ctx t data =
    if not t.established then invalid_arg "Client.seal_request: no session";
    let data = match ctx with None -> data | Some cx -> encode_ctx cx data in
    encode_sealed
      (Crypto.Aead.seal ~key:t.c2s ~nonce:(fresh_nonce t.rng) ~ad:(Bytes.of_string "c2s") data)

  let open_response t wire_bytes =
    if not t.established then Error "no session"
    else
      match decode_sealed wire_bytes with
      | Error e -> Error e
      | Ok sealed -> (
          match Crypto.Aead.open_ ~key:t.s2c ~ad:(Bytes.of_string "s2c") sealed with
          | None -> Error "response authentication failed"
          | Some padded -> unpad padded)
end

module Server = struct
  type t = {
    rng : Crypto.Drbg.t;
    c2s : bytes;
    s2c : bytes;
    emit : Obs.Trace.kind -> arg:int -> unit;
        (* Channel traffic events ride the monitor's emitter; arg is the
           wire-payload size in bytes. *)
    obs : Obs.Emitter.t;
    now : unit -> int;
    mutable last_ctx : Obs.Request.ctx option;
        (* Trace context of the request being served, set by [open_request]
           and cleared when [seal_response] closes the window. *)
  }

  let last_ctx t = t.last_ctx

  (* Attribution span markers around the crypto work. The channel's own
     computation is host-real (no virtual cost of its own), but the spans
     scope the decrypt/seal cycle charges the machine layer adds and make
     handshake crypto visible in traces — e.g. the tdreport EMC inside
     [accept] shows up nested under [crypto]. *)
  let crypto_begin = Obs.Trace.span_begin Obs.Trace.Channel_crypto
  let crypto_end = Obs.Trace.span_end Obs.Trace.Channel_crypto

  let accept ~monitor ~rng ~client_hello =
    let emit kind ~arg =
      Obs.Emitter.emit (Monitor.obs monitor) kind ~ts:(Monitor.now monitor) ~arg
    in
    emit Obs.Trace.Channel_recv ~arg:(Bytes.length client_hello);
    let audit verdict detail =
      Obs.Emitter.audit_event (Monitor.obs monitor)
        ~ts:(Monitor.now monitor) ~category:"channel.accept" ~verdict detail
    in
    if Bytes.length client_hello <> 192 then begin
      audit Obs.Audit.Deny (fun () -> "client hello: bad size");
      Error "client hello: bad size"
    end
    else begin
      emit crypto_begin ~arg:0;
      let result =
        let keypair = Crypto.Dh.generate rng in
        let server_pub = Crypto.Dh.public_bytes keypair in
        match Crypto.Dh.shared_secret keypair ~peer_public:client_hello with
        | None -> Error "handshake: degenerate client public value"
        | Some secret ->
            let binding = transcript_hash ~client_pub:client_hello ~server_pub in
            (* Only the monitor can execute this tdcall (C5). *)
            let report = Monitor.tdreport monitor ~report_data:binding in
            let c2s, s2c = derive_keys ~secret in
            let hello = Bytes.cat server_pub (serialize_report report) in
            Ok
              ( {
                  rng;
                  c2s;
                  s2c;
                  emit;
                  obs = Monitor.obs monitor;
                  now = (fun () -> Monitor.now monitor);
                  last_ctx = None;
                },
                hello )
      in
      emit crypto_end ~arg:0;
      (match result with
      | Ok (_, hello) ->
          emit Obs.Trace.Channel_send ~arg:(Bytes.length hello);
          audit Obs.Audit.Allow (fun () -> "session established")
      | Error e -> audit Obs.Audit.Deny (fun () -> e));
      result
    end

  let open_request t wire_bytes =
    t.emit Obs.Trace.Channel_recv ~arg:(Bytes.length wire_bytes);
    t.emit crypto_begin ~arg:0;
    let result =
      match decode_sealed wire_bytes with
      | Error e -> Error e
      | Ok sealed -> (
          match Crypto.Aead.open_ ~key:t.c2s ~ad:(Bytes.of_string "c2s") sealed with
          | None -> Error "request authentication failed"
          | Some data -> Ok data)
    in
    t.emit crypto_end ~arg:0;
    match result with
    | Error e ->
        Obs.Emitter.audit_event t.obs ~ts:(t.now ()) ~category:"channel.request"
          ~verdict:Obs.Audit.Deny (fun () -> e);
        result
    | Ok data -> (
        (* Strip the trace-context header before the plaintext reaches the
           monitor: downstream length-proportional cycle charges must not
           see it. The server-side request window opens here and closes in
           [seal_response]. *)
        match decode_ctx data with
        | None -> result
        | Some (cx, payload) ->
            t.last_ctx <- Some cx;
            t.emit Obs.Trace.Req_begin ~arg:(Obs.Request.pack cx ~root:false);
            Ok payload)

  let seal_response t ~bucket data =
    t.emit crypto_begin ~arg:0;
    let out =
      encode_sealed
        (Crypto.Aead.seal ~key:t.s2c ~nonce:(fresh_nonce t.rng) ~ad:(Bytes.of_string "s2c")
           (pad_to_bucket ~bucket data))
    in
    t.emit crypto_end ~arg:0;
    t.emit Obs.Trace.Channel_send ~arg:(Bytes.length out);
    (match t.last_ctx with
    | None -> ()
    | Some cx ->
        t.emit Obs.Trace.Req_end ~arg:(Obs.Request.pack cx ~root:false);
        t.last_ctx <- None);
    out
end
