(* The gate code mirrors Fig. 5: endbr64 first, scratch saves, PKRS grant,
   stack switch, and the symmetric exit sequence. It is assembled so the
   monitor image can be measured and so the endbr offset is real. *)
let gate_listing =
  [
    (* EntryGate: *)
    Hw.Isa.Endbr;                       (* the only indirect-branch target *)
    Hw.Isa.Store (Hw.Isa.R7, Hw.Isa.R0);  (* save scratch registers *)
    Hw.Isa.Store (Hw.Isa.R7, Hw.Isa.R1);
    Hw.Isa.Wrmsr;                       (* IA32_PKRS <- GRANT_ALL *)
    Hw.Isa.Mov_imm (Hw.Isa.R6, 0);      (* switch to per-core secure stack *)
    Hw.Isa.Load (Hw.Isa.R0, Hw.Isa.R7); (* restore scratch *)
    Hw.Isa.Load (Hw.Isa.R1, Hw.Isa.R7);
    Hw.Isa.Call 4;                      (* dispatch to the requested service *)
    (* ExitGate: *)
    Hw.Isa.Load (Hw.Isa.R6, Hw.Isa.R7); (* switch back to OS stack *)
    Hw.Isa.Wrmsr;                       (* IA32_PKRS <- REVOKE_OS_R_W *)
    Hw.Isa.Ret;
  ]

type t = {
  cpu : Hw.Cpu.t;
  code_base : int;
  code : bytes;
  gate_retires : int;           (* instructions the listing retired at create *)
  backend : Isolation.t;
  granted : int;                (* the backend's constant grant, read once *)
  mutable depth : int;          (* nested monitor-context calls *)
  mutable saved_grants : int list; (* the per-core secure stack *)
  mutable emc_count : int;
  mutable interrupted : int;
}

let create ~cpu ~code_base ~backend () =
  let code = Hw.Isa.assemble gate_listing in
  (* Self-check, once: the measured listing must decode and retire every
     instruction through the instruction cache ([of_bytes] is content-keyed,
     so every gate in a multi-machine sweep shares one decoded program).
     The listing has no data-dependent branch, so the count cannot differ
     on a later run; the integrity that matters is that of the bytes in
     monitor memory, which [Monitor.gate_intact] compares. *)
  let icode =
    match Hw.Icode.of_bytes code with
    | Ok p -> p
    | Error off -> Fmt.failwith "Gate.create: undecodable listing at +%d" off
  in
  let gate_retires =
    Hw.Icode.run icode (Hw.Icode.make_state ()) ~entry:0 ~fuel:64
  in
  if gate_retires <> List.length gate_listing then
    Fmt.failwith "Gate.create: listing retires %d of %d instructions"
      gate_retires
      (List.length gate_listing);
  {
    cpu;
    code_base;
    code;
    gate_retires;
    backend;
    granted = Isolation.granted_value backend;
    depth = 0;
    saved_grants = [];
    emc_count = 0;
    interrupted = 0;
  }

let backend t = t.backend

let entry_point t = t.code_base
let code_bytes t = Bytes.copy t.code
let retires t = t.gate_retires

(* Byte-for-byte comparison in place: no staging copy, no clock charge,
   and no closure (the loop takes its operands as arguments). *)
let rec bytes_match code mem paddr i =
  i >= Bytes.length code
  || Hw.Phys_mem.read_u8 mem (paddr + i) = Char.code (Bytes.get code i)
     && bytes_match code mem paddr (i + 1)

let matches t mem ~paddr = bytes_match t.code mem paddr 0

let endbr_at t addr = addr = t.code_base

(* Read/grant/revoke the privilege state the backend uses. The saved value
   is opaque to callers: a PKRS image or a CR0.WP bit. Grants travel as
   unboxed ints — [enter] runs once per EMC and must not allocate, and the
   Isolation dispatch (existential match + indirect call) keeps that. *)
let read_grant t = Isolation.read_grant t.backend
let load_grant t v = Isolation.load_grant t.backend v
let revoked_value t = Isolation.revoked_value t.backend

let gate_span_begin = Obs.Trace.span_begin Obs.Trace.Emc_gate
let gate_span_end = Obs.Trace.span_end Obs.Trace.Emc_gate

(* One EMC round trip through the entry gate with a one-argument service
   body: the body receives its operand directly instead of closing over
   it, so the hottest privops (write_pte above all) cross the gate without
   building a per-call closure, and [enter] is this bracket behind its IBT
   check. The exit sequence is written out in both arms (here and in
   [call2]) rather than shared through a [finish] closure: the closure
   would capture [caller_grant] and [t0] and put one heap block on every
   EMC round trip. *)
let call1 t f a =
  if t.depth > 0 then f a (* already in monitor context *)
  else begin
    let t0 = Hw.Cycles.now t.cpu.Hw.Cpu.clock in
    (* The gate span covers the whole round trip; service-body spans nest
       inside it, so attribution splits gate overhead from service work. *)
    Obs.Emitter.emit t.cpu.Hw.Cpu.obs gate_span_begin ~ts:t0 ~arg:0;
    Hw.Cycles.advance t.cpu.Hw.Cpu.clock Hw.Cycles.Cost.emc_roundtrip;
    t.emc_count <- t.emc_count + 1;
    let caller_grant = read_grant t in
    load_grant t t.granted;
    t.depth <- 1;
    match f a with
    | v ->
        t.depth <- 0;
        load_grant t caller_grant;
        let now = Hw.Cycles.now t.cpu.Hw.Cpu.clock in
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs gate_span_end ~ts:now ~arg:0;
        (* One event per outermost monitor-context entry: ts is the entry
           time, arg the full round-trip latency in cycles. *)
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs Obs.Trace.Emc_entry ~ts:t0
          ~arg:(now - t0);
        v
    | exception e ->
        t.depth <- 0;
        load_grant t caller_grant;
        let now = Hw.Cycles.now t.cpu.Hw.Cpu.clock in
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs gate_span_end ~ts:now ~arg:0;
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs Obs.Trace.Emc_entry ~ts:t0
          ~arg:(now - t0);
        raise e
  end

let call2 t f a b =
  if t.depth > 0 then f a b
  else begin
    let t0 = Hw.Cycles.now t.cpu.Hw.Cpu.clock in
    Obs.Emitter.emit t.cpu.Hw.Cpu.obs gate_span_begin ~ts:t0 ~arg:0;
    Hw.Cycles.advance t.cpu.Hw.Cpu.clock Hw.Cycles.Cost.emc_roundtrip;
    t.emc_count <- t.emc_count + 1;
    let caller_grant = read_grant t in
    load_grant t t.granted;
    t.depth <- 1;
    match f a b with
    | v ->
        t.depth <- 0;
        load_grant t caller_grant;
        let now = Hw.Cycles.now t.cpu.Hw.Cpu.clock in
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs gate_span_end ~ts:now ~arg:0;
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs Obs.Trace.Emc_entry ~ts:t0
          ~arg:(now - t0);
        v
    | exception e ->
        t.depth <- 0;
        load_grant t caller_grant;
        let now = Hw.Cycles.now t.cpu.Hw.Cpu.clock in
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs gate_span_end ~ts:now ~arg:0;
        Obs.Emitter.emit t.cpu.Hw.Cpu.obs Obs.Trace.Emc_entry ~ts:t0
          ~arg:(now - t0);
        raise e
  end

let enter t ~target f =
  if t.depth > 0 then f () (* already in monitor context *)
  else begin
    (* Inline IBT check (Hw.Cet.check_branch without the closure/result
       allocations): the gate entry is the only valid endbr64 target. *)
    if Hw.Msr.s_cet_bits t.cpu.Hw.Cpu.msr land 4 <> 0 && target <> t.code_base
    then
      Hw.Fault.raise_fault
        (Hw.Fault.Control_protection
           (Printf.sprintf "indirect branch to 0x%x: no endbr64" target));
    call1 t f ()
  end

let call t f = enter t ~target:t.code_base f

(* Pop the grant the #INT gate pushed and load it back. Top level, so both
   arms of [interrupt_during_emc] call it without building a closure. *)
let restore_saved_grant t =
  match t.saved_grants with
  | saved :: rest ->
      t.saved_grants <- rest;
      load_grant t saved
  | [] -> assert false

let interrupt_during_emc t f =
  if t.depth = 0 then f ()
  else begin
    t.interrupted <- t.interrupted + 1;
    (* #INT gate: push the granted privilege on the secure stack, revoke,
       run the OS handler, restore on return or raise. *)
    t.saved_grants <- read_grant t :: t.saved_grants;
    load_grant t (revoked_value t);
    match f () with
    | v ->
        restore_saved_grant t;
        v
    | exception e ->
        restore_saved_grant t;
        raise e
  end

let in_emc t = t.depth > 0
let secure_stack_depth t = List.length t.saved_grants
let emc_count t = t.emc_count
let interrupted_count t = t.interrupted
