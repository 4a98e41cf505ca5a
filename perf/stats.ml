(* Order statistics over host-time samples, and the bound verdict that
   [compare] applies to two runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The [n - 1] cut points of Python's [statistics.quantiles(xs, n=n)]
   (method "exclusive"), so spreads read the same as the tooling that
   judges this benchmark. One sample is its own every cut point. *)
let quantiles ~n xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quantiles: no samples"
  else if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

let p90 xs = List.nth (quantiles ~n:10 xs) 8

(* The [pct]-th percentile is reported only when at least ten of [n]
   samples lie beyond it. *)
let tail_ok ~pct n = n * (100 - pct) >= 1000

(* Interquartile distance as a share of the median: the run-to-run (or
   pass-to-pass) spread every bound is judged against. *)
let rel_iqr xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

type better = Lower | Higher
type verdict = Ok | Regression | Unresolved

let verdict_name = function
  | Ok -> "ok"
  | Regression -> "regression"
  | Unresolved -> "unresolved"

(* [worse] is the signed relative change of [now] against [base], positive
   when [now] is worse. A spread wider than the bound leaves the metric
   unresolved rather than unchanged. *)
let worse ~better ~base ~now =
  let d = (now -. base) /. base in
  match better with Lower -> d | Higher -> -.d

let verdict ~better ~bound ~spread ~base ~now =
  if spread > bound then Unresolved
  else if worse ~better ~base ~now > bound then Regression
  else Ok
