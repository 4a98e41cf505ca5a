exception Policy_violation of string

type emc_stats = {
  mmu : int;
  cr : int;
  msr : int;
  idt : int;
  smap : int;
  ghci : int;
}

type t = {
  cpu : Hw.Cpu.t;
  mem : Hw.Phys_mem.t;
  td : Tdx.Td_module.t;
  backend : Isolation.t;
  gate : Gate.t;
  guard : Mmu_guard.t;
  monitor_first : int;
  monitor_frames : int;
  shared_first : int;
  shared_frames : int;
  mutable kernel : Kernel.t option;
  mutable kernel_lstar : int64;  (** Where the kernel *wanted* syscalls to go. *)
  mutable kernel_idt : Hw.Idt.t option;
  cpuid_cache : (int, int64) Hashtbl.t;
  mutable cache_hits : int;
  mutable usercopy_veto : unit -> string option;
  counters : Obs.Counter.t;
      (* Monitor-local counter view of the CPU's emitter, based at install:
         the per-kind EMC statistics are *derived* from the event stream,
         never mutated directly. *)
}

let gate t = t.gate
let guard t = t.guard
let backend t = t.backend
let kernel t = t.kernel
let obs t = t.cpu.Hw.Cpu.obs

let emc_stats t =
  let c k = Obs.Counter.count t.counters k in
  {
    mmu = c Obs.Trace.emc_mmu;
    cr = c Obs.Trace.emc_cr;
    msr = c Obs.Trace.emc_msr;
    idt = c Obs.Trace.emc_idt;
    smap = c Obs.Trace.emc_smap;
    ghci = c Obs.Trace.emc_ghci;
  }

let emc_total t = Gate.emc_count t.gate
let cpuid_cache_hits t = t.cache_hits

(* The gate code lives in monitor frame 1 (physical 0x1000), reached
   through the direct map like the rest of the monitor image. *)
let gate_paddr = 0x1000

let gate_intact t = Gate.matches t.gate t.mem ~paddr:gate_paddr

let install ?(backend = Isolation.Pks) ~cpu ~mem ~td ~firmware ~monitor_frames
    ~device_shared_frames () =
  let backend = Isolation.create backend ~cpu in
  let gate =
    Gate.create ~cpu ~code_base:(Kernel.Layout.direct_map gate_paddr) ~backend ()
  in
  let gate_code = Gate.code_bytes gate in
  (* Stage one: only the firmware and the monitor binary are measured. *)
  Tdx.Td_module.measure_initial td firmware;
  Tdx.Td_module.measure_initial td gate_code;
  let t =
    {
      cpu;
      mem;
      td;
      backend;
      gate;
      guard = Mmu_guard.create ~mem ~cpu ~backend;
      monitor_first = 0;
      monitor_frames;
      shared_first = monitor_frames;
      shared_frames = device_shared_frames;
      kernel = None;
      kernel_lstar = 0L;
      kernel_idt = None;
      cpuid_cache = Hashtbl.create 8;
      cache_hits = 0;
      usercopy_veto = (fun () -> None);
      counters = Obs.Counter.attach cpu.Hw.Cpu.obs (Obs.Counter.create ());
    }
  in
  (* Claim monitor memory. *)
  for pfn = t.monitor_first to t.monitor_first + monitor_frames - 1 do
    match Mmu_guard.classify t.guard ~pfn Mmu_guard.Monitor with
    | Ok () -> ()
    | Error e -> failwith ("Monitor.install: " ^ e)
  done;
  (* The measured listing goes where the monitor lives, so what MRTD
     attests is what sits behind the entry point. *)
  if gate_paddr + Bytes.length gate_code > Hw.Phys_mem.addr_of_pfn monitor_frames
  then failwith "Monitor.install: gate code outside monitor memory";
  Hw.Phys_mem.write_bytes mem gate_paddr gate_code;
  if not (gate_intact t) then failwith "Monitor.install: gate code not in place";
  (* Enable the hardware features the backend rests on: PKS programs CR4
     plus the normal-mode PKRS, WP nothing extra (CR0.WP is pinned below),
     TME-MK attaches its key engine to the walker. *)
  Isolation.install backend;
  Hw.Cpu.set_cr_bit cpu ~reg:`Cr4 Hw.Cr.cr4_cet true;
  Hw.Cpu.set_cr_bit cpu ~reg:`Cr0 Hw.Cr.cr0_wp true;
  Hw.Cpu.write_msr cpu Hw.Msr.ia32_s_cet Hw.Msr.s_cet_ibt_bit;
  t

let clock t = t.cpu.Hw.Cpu.clock
let cost t c = Hw.Cycles.advance (clock t) c
let now t = Hw.Cycles.now (clock t)

(* CR bits the kernel must never clear once Erebor runs. *)
let pinned_cr_bits =
  [
    (`Cr0, Hw.Cr.cr0_wp);
    (`Cr4, Hw.Cr.cr4_smep);
    (`Cr4, Hw.Cr.cr4_smap);
    (`Cr4, Hw.Cr.cr4_pks);
    (`Cr4, Hw.Cr.cr4_cet);
  ]

(* MSRs only the monitor itself may program. *)
let monitor_owned_msrs =
  [ Hw.Msr.ia32_pkrs; Hw.Msr.ia32_s_cet; Hw.Msr.ia32_pl0_ssp; Hw.Msr.ia32_uintr_tt ]

(* Audit rail: security decisions append to the attached chain (if any).
   Appending is pure bookkeeping — it never advances the virtual clock, and
   the detail thunk only runs when a chain is attached. *)
let audit t ~category verdict detail =
  Obs.Emitter.audit_event (obs t) ~ts:(now t) ~category ~verdict detail

(* Allow-path audit closures are built only when a chain is attached:
   [audit_event] already skips the thunk, but the thunk itself is a heap
   block at every call site, so hot privops test this first. *)
let audited t =
  match Obs.Emitter.audit (obs t) with Some _ -> true | None -> false

(* Every policy rejection is audited before the exception unwinds through
   the gate, so the chain records the decision even when the caller dies. *)
let fail t ~category msg =
  audit t ~category Obs.Audit.Deny (fun () -> msg);
  raise (Policy_violation msg)

(* Open an attribution span around [f]; the begin/end pair is emitted at
   the current clock (never advancing it), so the Attrib sink can charge
   the enclosed cycles to [phase]. *)
let spanned t phase f =
  let obs = t.cpu.Hw.Cpu.obs in
  Obs.Emitter.emit obs (Obs.Trace.span_begin phase) ~ts:(now t) ~arg:0;
  match f () with
  | v ->
      Obs.Emitter.emit obs (Obs.Trace.span_end phase) ~ts:(now t) ~arg:0;
      v
  | exception e ->
      Obs.Emitter.emit obs (Obs.Trace.span_end phase) ~ts:(now t) ~arg:0;
      raise e

(* Run one EMC service routine for privop kind [ek]: the body executes
   inside the matching [Svc_*] attribution span, and an [Emc ek] event is
   published whose timestamp is the service start and whose argument is the
   cycles the service charged (clock delta). Emitted even when policy
   rejects the request, so counts match the pre-refactor per-kind
   statistics. *)
let serviced1 t ek f a =
  let obs = t.cpu.Hw.Cpu.obs in
  let t0 = Hw.Cycles.now (clock t) in
  Obs.Emitter.emit obs (Obs.Trace.span_begin (Obs.Trace.gate_phase ek)) ~ts:t0
    ~arg:0;
  (* Exit arms written out — a shared [finish] closure would capture [t0]
     and cost a heap block per EMC service. *)
  match f a with
  | v ->
      let now = Hw.Cycles.now (clock t) in
      Obs.Emitter.emit obs (Obs.Trace.span_end (Obs.Trace.gate_phase ek))
        ~ts:now ~arg:0;
      Obs.Emitter.emit obs (Obs.Trace.emc_event ek) ~ts:t0 ~arg:(now - t0);
      v
  | exception e ->
      let now = Hw.Cycles.now (clock t) in
      Obs.Emitter.emit obs (Obs.Trace.span_end (Obs.Trace.gate_phase ek))
        ~ts:now ~arg:0;
      Obs.Emitter.emit obs (Obs.Trace.emc_event ek) ~ts:t0 ~arg:(now - t0);
      raise e

(* [serviced1] with the operand passed through rather than captured: a
   privop whose body is built once crosses it without a per-call
   closure. *)
let serviced t ek f = serviced1 t ek f ()

let privops t =
  let g = t.gate in
  let cat = Policy.audit_category in
  (* write_pte is the hottest privop by an order of magnitude (demand
     paging, PTE churn, batched populate), so its whole EMC is assembled
     from pieces allocated here, once: the [serviced t Mmu] bracket is
     written out inline and the operands travel through [Gate.call1/call2]
     instead of a per-call closure. A steady-state PTE write therefore
     crosses the gate without touching the minor heap. Event sequence and
     cycle charges are identical to the generic [serviced] path. *)
  let svc_mmu_begin = Obs.Trace.span_begin (Obs.Trace.gate_phase Obs.Trace.Mmu) in
  let svc_mmu_end = Obs.Trace.span_end (Obs.Trace.gate_phase Obs.Trace.Mmu) in
  let svc_mmu_event = Obs.Trace.emc_event Obs.Trace.Mmu in
  let mmu_service prefix pte_addr pte =
    let obs = t.cpu.Hw.Cpu.obs in
    let t0 = Hw.Cycles.now (clock t) in
    Obs.Emitter.emit obs svc_mmu_begin ~ts:t0 ~arg:0;
    cost t Hw.Cycles.Cost.emc_service_mmu;
    let r = Mmu_guard.write_pte t.guard ~trusted:false ~pte_addr pte in
    let now = Hw.Cycles.now (clock t) in
    Obs.Emitter.emit obs svc_mmu_end ~ts:now ~arg:0;
    Obs.Emitter.emit obs svc_mmu_event ~ts:t0 ~arg:(now - t0);
    match r with
    | Ok () -> ()
    | Error e -> fail t ~category:(cat Policy.Mmu) (prefix ^ e)
  in
  let svc_write_pte pte_addr pte = mmu_service "mmu: " pte_addr pte in
  let svc_batch_entry (pte_addr, pte) =
    mmu_service "mmu batch: " pte_addr pte
  in
  let svc_write_pte_batch entries = Array.iter svc_batch_entry entries in
  (* CR3 loads (every context switch) and tdcalls (every host I/O kick)
     are the next hottest: their bodies are built here once too and their
     operand crosses through [Gate.call1] and [serviced1]. *)
  let write_cr3_body root_pfn =
    cost t Hw.Cycles.Cost.emc_service_cr;
    match Mmu_guard.register_root t.guard ~root_pfn with
    | Ok () ->
        if audited t then
          audit t ~category:(cat Policy.Cr) Obs.Audit.Allow (fun () ->
              Printf.sprintf "write_cr3 root_pfn=%d" root_pfn);
        (* Tenant context follows the address space: the backend learns
           which sandbox (if any) this root belongs to — TME-MK switches
           its active key here. *)
        Isolation.tenant_enter t.backend
          (Mmu_guard.sandbox_of_root t.guard ~root_pfn);
        Hw.Cpu.write_cr3 t.cpu ~root_pfn
    | Error e -> fail t ~category:(cat Policy.Cr) ("cr3: " ^ e)
  in
  let svc_write_cr3 root_pfn = serviced1 t Obs.Trace.Cr write_cr3_body root_pfn in
  let tdcall_body leaf =
    cost t (Hw.Cycles.Cost.emc_service_ghci - Hw.Cycles.Cost.tdreport_native);
    match leaf with
    | Tdx.Ghci.Tdreport _ ->
        fail t ~category:(cat Policy.Ghci)
          "ghci: attestation digests are monitor-exclusive"
    | Tdx.Ghci.Rtmr_extend _ ->
        fail t ~category:(cat Policy.Ghci)
          "ghci: measurement registers are monitor-exclusive"
    | Tdx.Ghci.Map_gpa { pfn; shared = true }
      when not (pfn >= t.shared_first && pfn < t.shared_first + t.shared_frames) ->
        fail t ~category:(cat Policy.Ghci) "ghci: sharing outside the device region"
    | Tdx.Ghci.Map_gpa _ | Tdx.Ghci.Vmcall _ ->
        if audited t then
          audit t ~category:(cat Policy.Ghci) Obs.Audit.Allow (fun () ->
              match leaf with
              | Tdx.Ghci.Map_gpa { pfn; shared } ->
                  Printf.sprintf "map_gpa pfn=%d shared=%b" pfn shared
              | _ -> "vmcall");
        Tdx.Td_module.tdcall t.td t.cpu leaf
  in
  let svc_tdcall leaf = serviced1 t Obs.Trace.Ghci tdcall_body leaf in
  {
    Kernel.Privops.label = "erebor";
    write_pte = (fun ~pte_addr pte -> Gate.call2 g svc_write_pte pte_addr pte);
    write_pte_batch =
      (fun entries ->
        (* One gate round trip covers the whole batch; each entry still
           pays validation and execution (§9.1 batched-MMU optimization). *)
        Gate.call1 g svc_write_pte_batch entries);
    set_cr_bit =
      (fun ~reg bit v ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Cr (fun () ->
                cost t Hw.Cycles.Cost.emc_service_cr;
                let pinned =
                  List.exists (fun (r, b) -> r = reg && Int64.equal b bit) pinned_cr_bits
                in
                if pinned && not v then
                  fail t ~category:(cat Policy.Cr)
                    "cr: clearing a monitor-pinned protection bit"
                else begin
                  if audited t then
                    audit t ~category:(cat Policy.Cr) Obs.Audit.Allow (fun () ->
                        Printf.sprintf "set_cr_bit %s bit=0x%Lx v=%b"
                          (match reg with `Cr0 -> "cr0" | `Cr4 -> "cr4")
                          bit v);
                  Hw.Cpu.set_cr_bit t.cpu ~reg bit v
                end)));
    write_cr3 = (fun ~root_pfn -> Gate.call1 g svc_write_cr3 root_pfn);
    declare_root =
      (fun ~root_pfn ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Mmu (fun () ->
                cost t Hw.Cycles.Cost.emc_service_mmu;
                match Mmu_guard.register_root t.guard ~root_pfn with
                | Ok () ->
                    if audited t then
                      audit t ~category:(cat Policy.Mmu) Obs.Audit.Allow
                        (fun () ->
                          Printf.sprintf "declare_root root_pfn=%d" root_pfn)
                | Error e ->
                    fail t ~category:(cat Policy.Mmu) ("declare_root: " ^ e))));
    write_msr =
      (fun idx v ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Msr (fun () ->
            cost t Hw.Cycles.Cost.emc_service_msr;
            if List.mem idx monitor_owned_msrs then
              fail t ~category:(cat Policy.Msr) "msr: register is monitor-owned"
            else begin
              if audited t then
                audit t ~category:(cat Policy.Msr) Obs.Audit.Allow (fun () ->
                    Printf.sprintf "write_msr idx=0x%x" idx);
              if idx = Hw.Msr.ia32_lstar then begin
                (* Interpose the syscall entry: remember where the kernel
                   wanted it, keep control at the monitor's entry. *)
                t.kernel_lstar <- v;
                Hw.Cpu.write_msr t.cpu idx (Int64.of_int (Gate.entry_point t.gate))
              end
              else Hw.Cpu.write_msr t.cpu idx v
            end)));
    lidt =
      (fun idt ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Idt (fun () ->
                cost t Hw.Cycles.Cost.emc_service_idt;
                (* The kernel's table is recorded; the installed table is the
                   monitor's wrapped copy (exit interposition, §6.2). *)
                if audited t then
                  audit t ~category:(cat Policy.Idt) Obs.Audit.Allow (fun () ->
                      "lidt: kernel table recorded, wrapped copy installed");
                t.kernel_idt <- Some (Hw.Idt.copy idt);
                Hw.Cpu.lidt t.cpu idt)));
    tdcall = (fun leaf -> Gate.call1 g svc_tdcall leaf);
    verify_dynamic_code =
      (fun ~section code ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Mmu (fun () ->
                cost t (Hw.Cycles.Cost.emc_service_mmu + Bytes.length code);
                match Scan.verify_bytes ~section code with
                | Ok () ->
                    audit t ~category:"scan" Obs.Audit.Allow (fun () ->
                        Printf.sprintf "dynamic code accepted: section=%s %d bytes"
                          section (Bytes.length code));
                    Ok ()
                | Error violations ->
                    audit t ~category:"scan" Obs.Audit.Deny (fun () ->
                        Fmt.str "dynamic code rejected: section=%s %a" section
                          (Fmt.list ~sep:Fmt.comma Scan.pp_violation)
                          violations);
                    Error
                      (Fmt.str "%a" (Fmt.list ~sep:Fmt.comma Scan.pp_violation) violations))));
    copy_from_user =
      (fun ~user_addr ~len ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Smap (fun () ->
                cost t Hw.Cycles.Cost.emc_service_smap;
                cost t (Hw.Cycles.Cost.usercopy_per_page * max 1 (Kernel.Layout.pages_of_bytes len));
                (match t.usercopy_veto () with
                | Some reason ->
                    fail t ~category:(cat Policy.Smap) ("usercopy: " ^ reason)
                | None -> ());
                Hw.Cpu.stac t.cpu;
                (match Hw.Cpu.read_bytes t.cpu user_addr len with
                 | v ->
                     Hw.Cpu.clac t.cpu;
                     v
                 | exception e ->
                     Hw.Cpu.clac t.cpu;
                     raise e))));
    copy_from_user_into =
      (fun ~user_addr ~buf ~off ~len ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Smap (fun () ->
                cost t Hw.Cycles.Cost.emc_service_smap;
                cost t (Hw.Cycles.Cost.usercopy_per_page * max 1 (Kernel.Layout.pages_of_bytes len));
                (match t.usercopy_veto () with
                | Some reason ->
                    fail t ~category:(cat Policy.Smap) ("usercopy: " ^ reason)
                | None -> ());
                Hw.Cpu.stac t.cpu;
                (match Hw.Cpu.read_into t.cpu user_addr buf ~off ~len with
                 | v ->
                     Hw.Cpu.clac t.cpu;
                     v
                 | exception e ->
                     Hw.Cpu.clac t.cpu;
                     raise e))));
    copy_to_user =
      (fun ~user_addr data ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Smap (fun () ->
                cost t Hw.Cycles.Cost.emc_service_smap;
                cost t
                  (Hw.Cycles.Cost.usercopy_per_page
                  * max 1 (Kernel.Layout.pages_of_bytes (Bytes.length data)));
                (match t.usercopy_veto () with
                | Some reason ->
                    fail t ~category:(cat Policy.Smap) ("usercopy: " ^ reason)
                | None -> ());
                Hw.Cpu.stac t.cpu;
                (match Hw.Cpu.write_bytes t.cpu user_addr data with
                 | v ->
                     Hw.Cpu.clac t.cpu;
                     v
                 | exception e ->
                     Hw.Cpu.clac t.cpu;
                     raise e))));
    copy_to_user_from =
      (fun ~user_addr ~buf ~off ~len ->
        Gate.call g (fun () ->
            serviced t Obs.Trace.Smap (fun () ->
                cost t Hw.Cycles.Cost.emc_service_smap;
                cost t (Hw.Cycles.Cost.usercopy_per_page * max 1 (Kernel.Layout.pages_of_bytes len));
                (match t.usercopy_veto () with
                | Some reason ->
                    fail t ~category:(cat Policy.Smap) ("usercopy: " ^ reason)
                | None -> ());
                Hw.Cpu.stac t.cpu;
                (match Hw.Cpu.write_from t.cpu user_addr buf ~off ~len with
                 | v ->
                     Hw.Cpu.clac t.cpu;
                     v
                 | exception e ->
                     Hw.Cpu.clac t.cpu;
                     raise e))));
  }

let boot_kernel t ~kernel_image ~reserved_frames ~cma_frames =
  match
    Obs.with_span (obs t) ~now:(fun () -> now t) Obs.Trace.Scan (fun () ->
        Scan.verify_image kernel_image)
  with
  | Error violations ->
      audit t ~category:"scan" Obs.Audit.Deny (fun () ->
          Fmt.str "kernel image rejected: %a"
            (Fmt.list ~sep:Fmt.comma Scan.pp_violation)
            violations);
      Error
        (Fmt.str "kernel image rejected: %a"
           (Fmt.list ~sep:Fmt.comma Scan.pp_violation)
           violations)
  | Ok () ->
      audit t ~category:"scan" Obs.Audit.Allow (fun () ->
          Printf.sprintf "kernel image accepted: %d sections"
            (List.length kernel_image.Hw.Image.sections));
      if reserved_frames < t.monitor_first + t.monitor_frames + t.shared_frames then
        Error "reserved_frames too small for monitor + device region"
      else begin
        (* Load the verified image into monitor-reserved memory and extend a
           runtime measurement with it (the kernel is *verified*, not part
           of the boot measurement). *)
        ignore
          (Tdx.Td_module.tdcall t.td t.cpu
             (Tdx.Ghci.Rtmr_extend { index = 0; data = Hw.Image.serialize kernel_image }));
        let text_frames = ref [] in
        let next = ref (t.monitor_first + t.monitor_frames + t.shared_frames) in
        List.iter
          (fun s ->
            let data = s.Hw.Image.data in
            let pages = Kernel.Layout.pages_of_bytes (Bytes.length data) in
            Hw.Phys_mem.write_bytes t.mem (Hw.Phys_mem.addr_of_pfn !next) data;
            if s.Hw.Image.executable then
              for i = 0 to pages - 1 do
                text_frames := (!next + i) :: !text_frames
              done;
            next := !next + pages)
          kernel_image.Hw.Image.sections;
        if !next > reserved_frames then
          failwith "boot_kernel: kernel image does not fit in reserved frames";
        List.iter
          (fun pfn ->
            match Mmu_guard.classify t.guard ~pfn Mmu_guard.Kernel_text with
            | Ok () -> ()
            | Error e -> failwith ("boot_kernel: " ^ e))
          !text_frames;
        let ops = privops t in
        let k =
          Kernel.boot ~mem:t.mem ~cpu:t.cpu ~td:t.td ~privops:ops
            ~reserved_frames ~cma_frames
        in
        Mmu_guard.set_kernel_root t.guard k.Kernel.kernel_root;
        t.kernel <- Some k;
        Ok k
      end

let tdreport t ~report_data =
  (* A report vouches for the measured gate, so a gate whose bytes in
     monitor memory no longer match it is refused before anything is
     minted. *)
  if not (gate_intact t) then
    fail t ~category:"attest" "tdreport: gate code differs from the measured listing";
  match
    Gate.call t.gate (fun () ->
        spanned t Obs.Trace.Svc_ghci (fun () ->
            Hw.Cycles.advance (clock t)
              (Hw.Cycles.Cost.emc_service_ghci - Hw.Cycles.Cost.tdreport_native);
            Tdx.Td_module.tdcall t.td t.cpu (Tdx.Ghci.Tdreport { report_data })))
  with
  | Tdx.Td_module.Ok_report r ->
      audit t ~category:"attest" Obs.Audit.Info (fun () ->
          "tdreport minted: " ^ Tdx.Attest.fingerprint r);
      r
  | Tdx.Td_module.Ok_int _ | Tdx.Td_module.Ok_bytes _ | Tdx.Td_module.Ok_unit ->
      failwith "tdreport: unexpected result"
  | Tdx.Td_module.Error_leaf e -> failwith ("tdreport: " ^ e)

let cpuid t ~leaf =
  match Hashtbl.find_opt t.cpuid_cache leaf with
  | Some v ->
      t.cache_hits <- t.cache_hits + 1;
      v
  | None -> (
      match
        Gate.call t.gate (fun () ->
            Tdx.Td_module.tdcall t.td t.cpu (Tdx.Ghci.Vmcall (Tdx.Ghci.Cpuid leaf)))
      with
      | Tdx.Td_module.Ok_int v ->
          Hashtbl.replace t.cpuid_cache leaf v;
          v
      | _ -> failwith "cpuid: host emulation failed")

let set_usercopy_veto t f = t.usercopy_veto <- f

let prepare_sandbox_entry t =
  Gate.call t.gate (fun () -> Hw.Cpu.write_msr t.cpu Hw.Msr.ia32_uintr_tt 0L)

let interpose_user_exit t f =
  spanned t Obs.Trace.Exit_interpose (fun () ->
      Hw.Cycles.advance (clock t) Hw.Cycles.Cost.monitor_exit_inspect);
  f ()
