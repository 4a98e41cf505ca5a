type mode = User | Supervisor

(* A register save slot filled and drained in place, so masking the GPRs
   around an exit builds nothing. [busy] holds while the slot is in use:
   the exits that use one do not nest. *)
type save_area = { slots : int64 array; mutable busy : bool }

type t = {
  id : int;
  mem : Phys_mem.t;
  clock : Cycles.clock;
  mutable mode : mode;
  regs : int64 array;
  exit_save : save_area;
      (* synchronous TD exits: the TDX module's TDVPS GPR slots *)
  cr : Cr.t;
  msr : Msr.t;
  mutable ac : bool;
  tlb : Tlb.t;
  mutable idt : Idt.t;
  apic : Apic.t;
  obs : Obs.Emitter.t;
  (* TME-MK key engine; None (the default, and the PKS backend) skips the
     key check entirely so the fill path is unchanged. *)
  mutable tme : Tme.t option;
  (* Cached access-check context: rebuilt only when one of its inputs
     changed (mode, EFLAGS.AC, any CR write, any MSR write), so the TLB-hit
     path does one record read instead of one record build per access. *)
  mutable actx : Access.ctx;
  mutable actx_mode : mode;
  mutable actx_ac : bool;
  mutable actx_cr_gen : int;
  mutable actx_msr_gen : int;
  (* Last-translation memo, one slot per access kind: a repeat access to
     the same page under an unchanged TLB epoch and context skips even the
     TLB probe and permission check (sequential scans, usercopy loops). *)
  mutable memo_epoch : int;
  mutable memo_r_vpn : int;
  mutable memo_r_base : int;
  mutable memo_w_vpn : int;
  mutable memo_w_base : int;
  mutable memo_x_vpn : int;
  mutable memo_x_base : int;
}

let nregs = 16

let save_area () = { slots = Array.make nregs 0L; busy = false }

let create ?obs ~id ~mem ~clock ~timer_period () =
  let cr = Cr.create () in
  let msr = Msr.create () in
  {
    id;
    mem;
    clock;
    mode = Supervisor;
    regs = Array.make nregs 0L;
    exit_save = save_area ();
    cr;
    msr;
    ac = false;
    tlb = Tlb.create ();
    idt = Idt.create ();
    apic = Apic.create clock ~period:timer_period;
    obs = (match obs with Some e -> e | None -> Obs.Emitter.create ());
    tme = None;
    actx =
      {
        Access.user_mode = false;
        wp = false;
        smep = false;
        smap = false;
        pks = false;
        ac = false;
        pkrs = 0L;
      };
    actx_mode = Supervisor;
    actx_ac = false;
    actx_cr_gen = Cr.gen cr;
    actx_msr_gen = Msr.gen msr;
    memo_epoch = -1;
    memo_r_vpn = -1;
    memo_r_base = 0;
    memo_w_vpn = -1;
    memo_w_base = 0;
    memo_x_vpn = -1;
    memo_x_base = 0;
  }

let emit t kind ~arg = Obs.Emitter.emit t.obs kind ~ts:(Cycles.now t.clock) ~arg

let clear_memo t =
  t.memo_r_vpn <- -1;
  t.memo_w_vpn <- -1;
  t.memo_x_vpn <- -1

let rebuild_ctx t =
  t.actx <-
    {
      Access.user_mode = t.mode = User;
      wp = Cr.wp t.cr;
      smep = Cr.smep t.cr;
      smap = Cr.smap t.cr;
      pks = Cr.pks t.cr;
      ac = t.ac;
      pkrs = Msr.read t.msr Msr.ia32_pkrs;
    };
  t.actx_mode <- t.mode;
  t.actx_ac <- t.ac;
  t.actx_cr_gen <- Cr.gen t.cr;
  t.actx_msr_gen <- Msr.gen t.msr;
  clear_memo t

let access_ctx t =
  if
    not
      (t.actx_mode == t.mode && t.actx_ac = t.ac
      && t.actx_cr_gen = Cr.gen t.cr
      && t.actx_msr_gen = Msr.gen t.msr)
  then rebuild_ctx t;
  t.actx

let not_present_fault t ~kind vaddr =
  let f =
    Fault.Page_fault
      {
        Fault.addr = vaddr;
        kind;
        user = t.mode = User;
        present = false;
        pkey_violation = false;
      }
  in
  emit t Obs.Trace.Fault_raised ~arg:(Fault.vector f);
  Fault.raise_fault f

let tme_fault t ~kind vaddr detail =
  Obs.Emitter.audit_event t.obs ~ts:(Cycles.now t.clock) ~category:"tme"
    ~verdict:Obs.Audit.Deny detail;
  let f =
    Fault.Page_fault
      {
        Fault.addr = vaddr;
        kind;
        user = t.mode = User;
        present = true;
        pkey_violation = true;
      }
  in
  emit t Obs.Trace.Fault_raised ~arg:(Fault.vector f);
  Fault.raise_fault f

(* TME-MK key check, at fill time only: CR3 switches and guarded PTE
   stores flush the TLB, so every relevant permission change forces a
   refill through here. *)
let tme_check t tme ~kind vaddr ~pfn ~pte =
  match Tme.check tme ~pfn ~pte_keyid:(Pte.keyid pte) with
  | Tme.Plain -> ()
  | Tme.Keyed -> Cycles.advance t.clock Cycles.Cost.tme_key_load
  | Tme.Wrong_key (claimed, actual) ->
      tme_fault t ~kind vaddr (fun () ->
          Printf.sprintf "keyid mismatch pfn=%d pte_keyid=%d frame_tag=%d" pfn
            claimed actual)
  | Tme.Inactive_key (tagd, active) ->
      tme_fault t ~kind vaddr (fun () ->
          Printf.sprintf "inactive key pfn=%d frame_tag=%d active=%d" pfn tagd
            active)

(* TLB miss: walk, set accessed/dirty as hardware does, fill. The packed
   walk and the leaf read stay in registers, so a fill allocates nothing
   (unless a TME engine is attached and checks the frame). *)
let tlb_fill t ~kind vaddr =
  let w = Page_table.walk_packed t.mem ~root_pfn:(Cr.root_pfn t.cr) vaddr in
  if w < 0 then not_present_fault t ~kind vaddr
  else begin
    let pte_addr = Page_table.packed_pte_addr w in
    let pte = Phys_mem.read_u64 t.mem pte_addr in
    let pfn = Page_table.leaf_pfn pte ~huge:(Page_table.packed_huge w) vaddr in
    (match t.tme with
    | None -> ()
    | Some tme -> tme_check t tme ~kind vaddr ~pfn ~pte);
    let updated = Pte.set_accessed pte true in
    let updated = if kind = Fault.Write then Pte.set_dirty updated true else updated in
    if not (Int64.equal updated pte) then Phys_mem.write_u64 t.mem pte_addr updated;
    let packed =
      Tlb.pack ~pfn ~user:(Page_table.packed_user w)
        ~writable:(Page_table.packed_writable w) ~nx:(Page_table.packed_nx w)
        ~pkey:(Pte.pkey pte)
    in
    Tlb.insert t.tlb vaddr packed;
    emit t Obs.Trace.Tlb_fill ~arg:vaddr;
    packed
  end

let translate t ~kind vaddr =
  let ctx = access_ctx t in
  let ep = Tlb.epoch t.tlb in
  if ep <> t.memo_epoch then begin
    t.memo_epoch <- ep;
    clear_memo t
  end;
  let vpn = vaddr lsr Phys_mem.page_shift in
  let off = vaddr land (Phys_mem.page_size - 1) in
  let memo_vpn =
    match kind with
    | Fault.Read -> t.memo_r_vpn
    | Fault.Write -> t.memo_w_vpn
    | Fault.Execute -> t.memo_x_vpn
  in
  if memo_vpn = vpn then
    (match kind with
    | Fault.Read -> t.memo_r_base
    | Fault.Write -> t.memo_w_base
    | Fault.Execute -> t.memo_x_base)
    lor off
  else begin
    let packed = Tlb.find t.tlb vpn in
    let packed = if packed >= 0 then packed else tlb_fill t ~kind vaddr in
    (match
       Access.check_bits ctx ~kind ~addr:vaddr ~user:(Tlb.packed_user packed)
         ~writable:(Tlb.packed_writable packed) ~nx:(Tlb.packed_nx packed)
         ~pkey:(Tlb.packed_pkey packed)
     with
    | Ok () -> ()
    | Error f ->
        emit t Obs.Trace.Fault_raised ~arg:(Fault.vector f);
        Fault.raise_fault f);
    let base = Tlb.packed_page_base packed in
    (* A fill bumped the TLB epoch; restamp before memoizing. *)
    let ep = Tlb.epoch t.tlb in
    if ep <> t.memo_epoch then begin
      t.memo_epoch <- ep;
      clear_memo t
    end;
    (match kind with
    | Fault.Read ->
        t.memo_r_vpn <- vpn;
        t.memo_r_base <- base
    | Fault.Write ->
        t.memo_w_vpn <- vpn;
        t.memo_w_base <- base
    | Fault.Execute ->
        t.memo_x_vpn <- vpn;
        t.memo_x_base <- base);
    base lor off
  end

let read_u8 t vaddr = Phys_mem.read_u8 t.mem (translate t ~kind:Fault.Read vaddr)
let write_u8 t vaddr v = Phys_mem.write_u8 t.mem (translate t ~kind:Fault.Write vaddr) v
let read_u64 t vaddr = Phys_mem.read_u64 t.mem (translate t ~kind:Fault.Read vaddr)
let write_u64 t vaddr v = Phys_mem.write_u64 t.mem (translate t ~kind:Fault.Write vaddr) v

(* Bulk accesses: one translation and one direct blit per touched page —
   no intermediate buffers. *)

let read_into t vaddr buf ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then
    invalid_arg "Cpu.read_into: slice out of range";
  let copied = ref 0 in
  while !copied < len do
    let va = vaddr + !copied in
    let pa = translate t ~kind:Fault.Read va in
    let chunk = min (Phys_mem.page_size - Phys_mem.page_offset va) (len - !copied) in
    Phys_mem.blit_to t.mem pa buf ~off:(off + !copied) ~len:chunk;
    copied := !copied + chunk
  done

let write_from t vaddr buf ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then
    invalid_arg "Cpu.write_from: slice out of range";
  let copied = ref 0 in
  while !copied < len do
    let va = vaddr + !copied in
    let pa = translate t ~kind:Fault.Write va in
    let chunk = min (Phys_mem.page_size - Phys_mem.page_offset va) (len - !copied) in
    Phys_mem.blit_from t.mem pa buf ~off:(off + !copied) ~len:chunk;
    copied := !copied + chunk
  done

let read_bytes t vaddr len =
  if len < 0 then invalid_arg "Cpu.read_bytes: negative length";
  let out = Bytes.create len in
  read_into t vaddr out ~off:0 ~len;
  out

let write_bytes t vaddr data = write_from t vaddr data ~off:0 ~len:(Bytes.length data)

let require_supervisor t what =
  if t.mode = User then
    Fault.raise_fault (Fault.General_protection (what ^ " from user mode"))

let write_msr t idx v =
  require_supervisor t "wrmsr";
  Msr.write t.msr idx v

let read_msr t idx =
  require_supervisor t "rdmsr";
  Msr.read t.msr idx

let write_cr3 t ~root_pfn =
  require_supervisor t "mov cr3";
  Cr.set_root t.cr root_pfn;
  Tlb.flush_all t.tlb

let set_cr_bit t ~reg bit v =
  require_supervisor t "mov cr";
  Cr.set_bit t.cr ~reg bit v

let lidt t idt =
  require_supervisor t "lidt";
  t.idt <- idt

let stac t =
  require_supervisor t "stac";
  t.ac <- true

let clac t =
  require_supervisor t "clac";
  t.ac <- false

let invlpg t vaddr = Tlb.flush_page t.tlb vaddr
let flush_tlb t = Tlb.flush_all t.tlb

let snapshot_regs t = Array.copy t.regs

let save_regs t dst =
  if Array.length dst <> nregs then invalid_arg "Cpu.save_regs: wrong size";
  Array.blit t.regs 0 dst 0 nregs

let restore_regs t saved =
  if Array.length saved <> nregs then invalid_arg "Cpu.restore_regs: wrong size";
  Array.blit saved 0 t.regs 0 nregs

let scrub_regs t = Array.fill t.regs 0 nregs 0L

(* The operand is passed through rather than captured, so a caller with a
   prebuilt handler masks without building a closure. Both exit arms are
   written out for the same reason. *)
let masked t area f a =
  assert (not area.busy);
  area.busy <- true;
  save_regs t area.slots;
  scrub_regs t;
  match f a with
  | v ->
      restore_regs t area.slots;
      area.busy <- false;
      v
  | exception e ->
      restore_regs t area.slots;
      area.busy <- false;
      raise e
