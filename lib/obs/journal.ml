(* The flight recorder: crash-safe binary event journal (format in
   journal.mli / DESIGN.md §16).

   Writer hot path: one kind byte + two zigzag varints into a preallocated
   buffer — no closures, no boxing, no Buffer module — so recording costs 0
   minor words per event in steady state. Segments are CRC-framed and
   flushed on seal, which is the crash-safety story: everything before the
   unsealed tail survives a kill. *)

let magic = "EJRN1\n"
let tag_head = "HEAD"
let tag_segm = "SEGM"
let tag_end = "END "

(* Control opcodes share the kind byte's space above the dense kind range. *)
let op_def_stream = 254
let op_set_stream = 255
let () = assert (Trace.n_kinds <= 250)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE, reflected) over ints — table-driven, allocation-free.  *)
(* ------------------------------------------------------------------ *)

let crc_table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

(* [crc] is the running (pre-inverted) state; seed with [crc_init], finish
   with [crc_final]. *)
let crc_init = 0xFFFFFFFF

let crc_update crc buf off len =
  let c = ref crc in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get crc_table ((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c

let crc_final crc = crc lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)
(* ------------------------------------------------------------------ *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (- (n land 1))

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type t = {
    oc : out_channel;
    buf : Bytes.t;           (* open segment's event bytes *)
    mutable pos : int;
    seg_limit : int;         (* seal once [pos] crosses this *)
    hdr : Bytes.t;           (* scratch for frame headers / segment prefix *)
    mutable last_ts : int;
    last_arg : int array;    (* per kind index *)
    mutable cur_stream : int;
    mutable streams : (string * int) list;
    mutable n_streams : int;
    mutable attached : int;  (* emitters attached (for default names) *)
    mutable seg_base_ts : int;
    mutable seg_events : int;
    mutable events : int;
    mutable segments : int;
    mutable closed : bool;
  }

  let put_byte t b =
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (b land 0xFF));
    t.pos <- t.pos + 1

  let put_uvarint t n =
    let v = ref n in
    while !v land lnot 0x7F <> 0 do
      put_byte t (!v land 0x7F lor 0x80);
      v := !v lsr 7
    done;
    put_byte t !v

  let put_svarint t n = put_uvarint t (zigzag n)

  let u32le b off v =
    Bytes.set_uint8 b off (v land 0xFF);
    Bytes.set_uint8 b (off + 1) ((v lsr 8) land 0xFF);
    Bytes.set_uint8 b (off + 2) ((v lsr 16) land 0xFF);
    Bytes.set_uint8 b (off + 3) ((v lsr 24) land 0xFF)

  (* Frame = tag[4] len[u32] crc[u32] payload; [pieces] are (buf, off, len)
     fragments so the segment path never concatenates. Flushed immediately:
     a sealed frame is on disk even if the process dies right after. *)
  let write_frame t tag pieces =
    let len = List.fold_left (fun acc (_, _, l) -> acc + l) 0 pieces in
    let crc =
      crc_final
        (List.fold_left (fun c (b, o, l) -> crc_update c b o l) crc_init pieces)
    in
    output_string t.oc tag;
    u32le t.hdr 0 len;
    u32le t.hdr 4 crc;
    output t.oc t.hdr 0 8;
    List.iter (fun (b, o, l) -> output t.oc b o l) pieces;
    flush t.oc

  let seal t =
    if t.seg_events > 0 || t.pos > 0 then begin
      (* Prefix: base timestamp + event count, varint-encoded into the
         header scratch via a tiny cursor. *)
      let p = ref 0 in
      let putb b = Bytes.set_uint8 t.hdr (8 + !p) b; incr p in
      let putu n =
        let v = ref n in
        while !v land lnot 0x7F <> 0 do
          putb (!v land 0x7F lor 0x80);
          v := !v lsr 7
        done;
        putb !v
      in
      putu t.seg_base_ts;
      putu t.seg_events;
      write_frame t tag_segm [ (t.hdr, 8, !p); (t.buf, 0, t.pos) ];
      t.segments <- t.segments + 1;
      t.pos <- 0;
      t.seg_events <- 0;
      t.seg_base_ts <- t.last_ts
    end

  let create ?(segment_bytes = 65536) ?(meta = []) ~path () =
    if segment_bytes < 256 then
      invalid_arg "Journal.Writer.create: segment_bytes must be >= 256";
    let oc = open_out_bin path in
    let t =
      {
        oc;
        (* Slack beyond the seal threshold: one maximal event record plus a
           stream switch never overruns. *)
        buf = Bytes.create (segment_bytes + 64);
        pos = 0;
        seg_limit = segment_bytes;
        hdr = Bytes.create 64;
        last_ts = 0;
        last_arg = Array.make Trace.n_kinds 0;
        cur_stream = -1;
        streams = [];
        n_streams = 0;
        attached = 0;
        seg_base_ts = 0;
        seg_events = 0;
        events = 0;
        segments = 0;
        closed = false;
      }
    in
    output_string oc magic;
    (* HEAD: version, metadata, and the wire-name intern tables that make
       the file self-describing. *)
    let b = Buffer.create 512 in
    let bputu n =
      let v = ref n in
      while !v land lnot 0x7F <> 0 do
        Buffer.add_uint8 b (!v land 0x7F lor 0x80);
        v := !v lsr 7
      done;
      Buffer.add_uint8 b !v
    in
    let bputs s =
      bputu (String.length s);
      Buffer.add_string b s
    in
    bputu 1 (* version *);
    bputu (List.length meta);
    List.iter (fun (k, v) -> bputs k; bputs v) meta;
    bputu Trace.n_kinds;
    List.iter (fun k -> bputs (Trace.name k)) Trace.all;
    bputu Trace.n_phases;
    List.iter (fun p -> bputs (Trace.phase_name p)) Trace.all_phases;
    bputu Trace.n_domains;
    List.iter (fun d -> bputs (Trace.domain_name d)) Trace.all_domains;
    let payload = Buffer.to_bytes b in
    write_frame t tag_head [ (payload, 0, Bytes.length payload) ];
    t

  let stream t ~machine =
    match List.assoc_opt machine t.streams with
    | Some id -> id
    | None ->
        let id = t.n_streams in
        t.n_streams <- id + 1;
        t.streams <- (machine, id) :: t.streams;
        (* Intern into the open segment; readers decode sequentially from
           the file start, so later segments may reference it freely. *)
        put_byte t op_def_stream;
        put_uvarint t id;
        put_uvarint t (String.length machine);
        String.iter (fun c -> put_byte t (Char.code c)) machine;
        id

  let record t ~stream kind ~ts ~arg =
    if not t.closed then begin
      if stream <> t.cur_stream then begin
        put_byte t op_set_stream;
        put_uvarint t stream;
        t.cur_stream <- stream
      end;
      let k = Trace.index kind in
      put_byte t k;
      put_svarint t (ts - t.last_ts);
      t.last_ts <- ts;
      put_svarint t (arg - Array.unsafe_get t.last_arg k);
      Array.unsafe_set t.last_arg k arg;
      t.seg_events <- t.seg_events + 1;
      t.events <- t.events + 1;
      if t.pos >= t.seg_limit then seal t
    end

  let close t ~now =
    if not t.closed then begin
      if now > t.last_ts then t.last_ts <- now;
      seal t;
      let p = ref 0 in
      let putb b = Bytes.set_uint8 t.hdr (8 + !p) b; incr p in
      let putu n =
        let v = ref n in
        while !v land lnot 0x7F <> 0 do
          putb (!v land 0x7F lor 0x80);
          v := !v lsr 7
        done;
        putb !v
      in
      putu t.segments; putu t.events; putu t.last_ts; putu t.n_streams;
      write_frame t tag_end [ (t.hdr, 8, !p) ];
      t.closed <- true;
      close_out t.oc
    end

  let attach ?machine t emitter =
    let name =
      match machine with
      | Some m -> m
      | None -> Printf.sprintf "m%d" t.attached
    in
    t.attached <- t.attached + 1;
    let id = stream t ~machine:name in
    Emitter.attach emitter (fun kind ~ts ~arg -> record t ~stream:id kind ~ts ~arg);
    Emitter.add_finalizer emitter (fun ~now -> close t ~now)

  let events t = t.events
  let segments t = t.segments
end

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  stream : int;
  kind : Trace.kind;
  ts : int;
  arg : int;
}

type info = {
  version : int;
  meta : (string * string) list;
  machines : (int * string) list;
  events : int;
  segments : int;
  complete : bool;
  last_ts : int;
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Cursor over one frame payload. *)
type cursor = { cbuf : Bytes.t; mutable cpos : int; clen : int; cwhat : string }

let cbyte c =
  if c.cpos >= c.clen then corrupt "%s: payload ends mid-record" c.cwhat;
  let b = Bytes.get_uint8 c.cbuf c.cpos in
  c.cpos <- c.cpos + 1;
  b

(* Raw 63-bit LEB128: a 9-byte encoding may set the sign bit, which the
   zigzag layer needs (full-range argument deltas). *)
let cvarint c =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    let b = cbyte c in
    if !shift > 62 then corrupt "%s: varint overflow" c.cwhat;
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

(* Lengths, counts and ids are never negative. *)
let cuvarint c =
  let v = cvarint c in
  if v < 0 then corrupt "%s: varint overflow" c.cwhat;
  v

let csvarint c = unzigzag (cvarint c)

let cstring c =
  let len = cuvarint c in
  if len > c.clen - c.cpos then corrupt "%s: string runs past payload" c.cwhat;
  let s = Bytes.sub_string c.cbuf c.cpos len in
  c.cpos <- c.cpos + len;
  s

(* Mutable decode state threaded across segments (the event stream is one
   continuous delta chain; segment headers only checkpoint it). *)
type decode_state = {
  mutable d_last_ts : int;
  d_last_arg : int array;
  mutable d_stream : int;
  mutable d_machines : (int * string) list;
  mutable d_events : int;
  mutable d_segments : int;
}

let decode_segment st c ~on_stream acc f =
  let base_ts = cuvarint c in
  let declared = cuvarint c in
  st.d_last_ts <- base_ts;
  let acc = ref acc in
  let n = ref 0 in
  while c.cpos < c.clen do
    let op = cbyte c in
    if op = op_def_stream then begin
      let id = cuvarint c in
      let name = cstring c in
      if List.mem_assoc id st.d_machines then
        corrupt "%s: stream %d defined twice" c.cwhat id;
      st.d_machines <- (id, name) :: st.d_machines;
      on_stream id name
    end
    else if op = op_set_stream then begin
      let id = cuvarint c in
      if not (List.mem_assoc id st.d_machines) then
        corrupt "%s: stream %d used before its definition" c.cwhat id;
      st.d_stream <- id
    end
    else begin
      if op >= Trace.n_kinds then corrupt "%s: unknown opcode %d" c.cwhat op;
      if st.d_stream < 0 then corrupt "%s: event before any stream" c.cwhat;
      let ts = st.d_last_ts + csvarint c in
      st.d_last_ts <- ts;
      let arg = st.d_last_arg.(op) + csvarint c in
      st.d_last_arg.(op) <- arg;
      incr n;
      acc :=
        f !acc
          { stream = st.d_stream; kind = Trace.kind_of_index op; ts; arg }
    end
  done;
  if !n <> declared then
    corrupt "%s: header declares %d events, payload holds %d" c.cwhat declared !n;
  st.d_events <- st.d_events + !n;
  st.d_segments <- st.d_segments + 1;
  !acc

let decode ?(strict = false) ~on_stream ~path ~init f =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      let cleanup () = close_in_noerr ic in
      let result =
        try
          let m = really_input_string ic (String.length magic) in
          if m <> magic then corrupt "not a journal (bad magic)";
          let st =
            {
              d_last_ts = 0;
              d_last_arg = Array.make Trace.n_kinds 0;
              d_stream = -1;
              d_machines = [];
              d_events = 0;
              d_segments = 0;
            }
          in
          let version = ref 0 in
          let meta = ref [] in
          let acc = ref init in
          let frame_no = ref 0 in
          let complete = ref false in
          let end_last_ts = ref 0 in
          let finished = ref false in
          while not !finished do
            let offset = pos_in ic in
            match really_input_string ic 12 with
            | exception End_of_file ->
                (* Clean EOF at a frame boundary... unless bytes remain. *)
                if pos_in ic <> offset then
                  if strict then
                    corrupt "frame %d at offset %d: file ends mid-header"
                      !frame_no offset;
                finished := true
            | hdr -> (
                let tag = String.sub hdr 0 4 in
                let u32 off =
                  Char.code hdr.[off]
                  lor (Char.code hdr.[off + 1] lsl 8)
                  lor (Char.code hdr.[off + 2] lsl 16)
                  lor (Char.code hdr.[off + 3] lsl 24)
                in
                let len = u32 4 in
                let crc = u32 8 in
                let what = Printf.sprintf "frame %d (%s at offset %d)" !frame_no
                    (String.trim tag) offset in
                if tag <> tag_head && tag <> tag_segm && tag <> tag_end then
                  corrupt "frame %d at offset %d: unknown tag %S" !frame_no
                    offset tag;
                let payload = Bytes.create len in
                (match really_input ic payload 0 len with
                | exception End_of_file ->
                    (* The writer was killed mid-frame: everything sealed
                       before this point is intact. *)
                    if strict then
                      corrupt "%s: file ends mid-frame (%d payload bytes missing)"
                        what (len - (in_channel_length ic - offset - 12));
                    finished := true
                | () ->
                    let got = crc_final (crc_update crc_init payload 0 len) in
                    if got <> crc then
                      corrupt "%s: CRC mismatch (stored %08x, computed %08x)"
                        what crc got;
                    let c = { cbuf = payload; cpos = 0; clen = len; cwhat = what } in
                    if !complete then corrupt "%s: data after END frame" what;
                    if tag = tag_head then begin
                      if !frame_no <> 0 then corrupt "%s: duplicate HEAD" what;
                      version := cuvarint c;
                      let n_meta = cuvarint c in
                      for _ = 1 to n_meta do
                        let k = cstring c in
                        let v = cstring c in
                        meta := (k, v) :: !meta
                      done
                      (* The intern tables are self-description for foreign
                         readers; this reader trusts its own Trace. *)
                    end
                    else if !frame_no = 0 then
                      corrupt "%s: first frame must be HEAD" what
                    else if tag = tag_segm then
                      acc := decode_segment st c ~on_stream !acc f
                    else begin
                      let segs = cuvarint c in
                      let evs = cuvarint c in
                      end_last_ts := cuvarint c;
                      let _streams = cuvarint c in
                      if segs <> st.d_segments || evs <> st.d_events then
                        corrupt
                          "%s: END totals disagree (declares %d segments / %d \
                           events, decoded %d / %d)"
                          what segs evs st.d_segments st.d_events;
                      complete := true
                    end;
                    incr frame_no))
          done;
          if strict && not !complete then
            corrupt "journal was never finalized (no END frame)";
          Ok
            ( !acc,
              {
                version = !version;
                meta = List.rev !meta;
                machines = List.sort compare st.d_machines;
                events = st.d_events;
                segments = st.d_segments;
                complete = !complete;
                last_ts = (if !complete then !end_last_ts else st.d_last_ts);
              } )
        with
        | Corrupt msg -> Error (path ^ ": " ^ msg)
        | End_of_file -> Error (path ^ ": truncated header")
        (* A directory or an unreadable file opens but fails on read. *)
        | Sys_error e -> Error (path ^ ": " ^ e)
      in
      cleanup ();
      result)

let fold ?strict ~path ~init f =
  decode ?strict ~on_stream:(fun _ _ -> ()) ~path ~init f

let read ?strict ~path () =
  match fold ?strict ~path ~init:[] (fun acc e -> e :: acc) with
  | Error _ as e -> e
  | Ok (rev, info) -> Ok (List.rev rev, info)

(* One replay target: the emitter the consumer built for a stream and the
   stream's last timestamp. A complete journal's END frame carries the
   writer's close time, which the live run may have taken later than its
   last event, so the stream closes at whichever is later; a truncated one
   closes at its last event. *)
type target = { emitter : Emitter.t; mutable last : int }

let replay ~path make =
  let targets = Hashtbl.create 4 and order = ref [] in
  let define id machine =
    let t = { emitter = make ~machine; last = 0 } in
    Hashtbl.add targets id t;
    order := t :: !order
  in
  (* The reader guarantees every event's stream was defined before it. *)
  decode ~on_stream:define ~path ~init:() (fun () e ->
      let t = Hashtbl.find targets e.stream in
      Emitter.emit t.emitter e.kind ~ts:e.ts ~arg:e.arg;
      if e.ts > t.last then t.last <- e.ts)
  |> Result.map (fun ((), info) ->
         List.iter
           (fun t ->
             let now = if info.complete then max t.last info.last_ts else t.last in
             Emitter.finalize t.emitter ~now)
           (List.rev !order);
         info)
