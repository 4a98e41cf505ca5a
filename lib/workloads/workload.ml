let mem_scale = 16
let time_scale = 8
let cycles_per_second = 2_100_000_000 (* the nominal core frequency *)
let steps_per_second = 100

type profile = {
  name : string;
  nominal_seconds : float;
  nominal_confined_mb : int;
  common : (string * int) option;
  threads : int;
  timer_hz : int;
  pf_per_sec : float;
  hostio_per_sec : float;
  hostio_bytes : int;
  pte_churn_per_sec : float;
  sync_per_sec : float;
  contention : float;
  service_per_sec : float;
  init_cycles_per_page : int;
  output_bucket : int;
}

let mb = 1024 * 1024
let page_size = Hw.Phys_mem.page_size

(* Duration multiplier (the bench --scale knob). Set once before any machine
   runs — and before any domains spawn — then only read, so the plain ref is
   domain-safe. *)
let scale = ref 1.0

let set_scale f =
  if f <= 0.0 then invalid_arg "Workload.set_scale: scale must be positive";
  scale := f

(* Fractional event accumulator: emits whole events as the fraction
   accumulates across steps. An all-float record is stored flat, so the
   running fraction is updated in place instead of boxing a float per
   step, and [due] returns the count so the step loop needs no per-step
   emit closure. The [+. rate] / [-. 1.0] sequence is the one the emitted
   counts were calibrated against; keep it. *)
type accumulator = { rate : float; mutable frac : float }

let accumulator rate = { rate; frac = 0.0 }

let due a =
  a.frac <- a.frac +. a.rate;
  let n = ref 0 in
  while a.frac >= 1.0 do
    a.frac <- a.frac -. 1.0;
    incr n
  done;
  !n

let to_spec p ~input ~real_work =
  let confined_bytes = p.nominal_confined_mb * mb / mem_scale in
  let confined_pages = max 1 (confined_bytes / page_size) in
  let body (ops : Sim.Machine.ops) =
    real_work ops;
    let sim_seconds = p.nominal_seconds *. !scale /. float_of_int time_scale in
    let steps = int_of_float (sim_seconds *. float_of_int steps_per_second) in
    let per_step rate = rate /. float_of_int steps_per_second in
    let pf = accumulator (per_step p.pf_per_sec) in
    let hostio = accumulator (per_step p.hostio_per_sec) in
    let churn = accumulator (per_step p.pte_churn_per_sec) in
    let sync = accumulator (per_step p.sync_per_sec) in
    let services = accumulator (per_step p.service_per_sec) in
    let step_cycles = cycles_per_second / steps_per_second in
    for _ = 1 to steps do
      for _ = 1 to due pf do ops.Sim.Machine.cold_fault () done;
      for _ = 1 to due hostio do ops.Sim.Machine.host_io ~bytes:p.hostio_bytes done;
      for _ = 1 to due churn do ops.Sim.Machine.pte_churn ~n:1 done;
      for _ = 1 to due services do ops.Sim.Machine.service () done;
      (* All [threads] workers run flat out for one step of wall-clock. *)
      ops.Sim.Machine.parallel ~total:(step_cycles * p.threads) ~sync_ops:(due sync)
    done
  in
  {
    Sim.Machine.name = p.name;
    sandboxed = true;
    timer_hz = p.timer_hz;
    init_compute = confined_pages * p.init_cycles_per_page;
    confined_bytes;
    nominal_confined_mb = p.nominal_confined_mb;
    common =
      Option.map (fun (name, size_mb) -> (name, size_mb * mb / mem_scale, size_mb)) p.common;
    threads = p.threads;
    contention = p.contention;
    input;
    output_bucket = p.output_bucket;
    body;
  }
