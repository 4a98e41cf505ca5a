type tdcall_result =
  | Ok_int of int64
  | Ok_bytes of bytes
  | Ok_report of Attest.report
  | Ok_unit
  | Error_leaf of string

type vmm_handler = Ghci.vmcall -> tdcall_result

type t = {
  sept : Sept.t;
  measurements : Attest.measurements;
  hw_key : bytes;
  clock : Hw.Cycles.clock;
  mutable vmm : vmm_handler option;
  mutable finalized : bool;
  mutable tdreports : int;
  async_save : Hw.Cpu.save_area; (* GPRs across an asynchronous exit *)
}

let create ~mem ~clock ~hw_key =
  {
    sept = Sept.create ~frames:(Hw.Phys_mem.frames mem);
    measurements = Attest.create_measurements ();
    hw_key;
    clock;
    vmm = None;
    finalized = false;
    tdreports = 0;
    async_save = Hw.Cpu.save_area ();
  }

let sept t = t.sept
let set_vmm t h = t.vmm <- Some h

let measure_initial t data =
  if t.finalized then invalid_arg "Td_module.measure_initial: TD build already finalized";
  Attest.extend_mrtd t.measurements data

let do_tdcall t cpu leaf =
  match leaf with
  | Ghci.Vmcall v -> (
      Hw.Cycles.advance t.clock Hw.Cycles.Cost.tdcall_roundtrip;
      match t.vmm with
      | None -> Error_leaf "no VMM attached"
      | Some handler -> (
          (* The TDX module protects guest context across the synchronous
             exit: the host handler runs against scrubbed registers, and
             the guest's come back from the core's save area (restored on
             the exception path too). *)
          Hw.Cpu.masked cpu cpu.Hw.Cpu.exit_save handler v))
  | Ghci.Tdreport { report_data } ->
      t.tdreports <- t.tdreports + 1;
      Hw.Cycles.advance t.clock Hw.Cycles.Cost.tdreport_native;
      Ok_report (Attest.generate t.measurements ~hw_key:t.hw_key ~report_data)
  | Ghci.Map_gpa { pfn; shared } ->
      Hw.Cycles.advance t.clock Hw.Cycles.Cost.tdcall_roundtrip;
      if pfn < 0 || pfn >= Sept.frames t.sept then Error_leaf "map_gpa: pfn out of range"
      else begin
        Sept.convert t.sept pfn (if shared then Sept.Shared else Sept.Private);
        Ok_unit
      end
  | Ghci.Rtmr_extend { index; data } ->
      Hw.Cycles.advance t.clock Hw.Cycles.Cost.tdcall_roundtrip;
      (try
         Attest.extend_rtmr t.measurements ~index data;
         Ok_unit
       with Invalid_argument e -> Error_leaf e)

let tdcall t cpu leaf =
  if cpu.Hw.Cpu.mode = Hw.Cpu.User then
    Hw.Fault.raise_fault (Hw.Fault.General_protection "tdcall from user mode");
  t.finalized <- true;
  let t0 = Hw.Cycles.now t.clock in
  let result = do_tdcall t cpu leaf in
  let spent = Hw.Cycles.now t.clock - t0 in
  Obs.Emitter.emit cpu.Hw.Cpu.obs Obs.Trace.Tdcall ~ts:t0 ~arg:spent;
  (match leaf with
  | Ghci.Vmcall _ -> Obs.Emitter.emit cpu.Hw.Cpu.obs Obs.Trace.Vmcall ~ts:t0 ~arg:spent
  | Ghci.Tdreport _ | Ghci.Map_gpa _ | Ghci.Rtmr_extend _ -> ());
  result

let with_async_exit t cpu f = Hw.Cpu.masked cpu t.async_save f ()

let tdreport_count t = t.tdreports
