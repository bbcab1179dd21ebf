let sorted xs =
  if xs = [] then invalid_arg "Stats: no samples";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let mean xs =
  if xs = [] then invalid_arg "Stats: no samples";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type tail = { pct : int; value : float; beyond : int }

(* Nearest rank (1-based) of percentile [p] among [n] samples. *)
let rank ~n p = max 1 ((p * n + 99) / 100)

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rec down p = if p <= 50 || n - rank ~n p >= 10 then max p 50 else down (p - 1) in
  let pct = down 99 in
  let k = rank ~n pct in
  { pct; value = a.(k - 1); beyond = n - k }

let rates ~events ~secs =
  if List.length events <> List.length secs then invalid_arg "Stats.rates: length mismatch";
  List.map2
    (fun e s ->
      if not (s > 0.0) then invalid_arg "Stats.rates: non-positive time";
      float_of_int e /. s)
    events secs

let rate_median ~events ~secs = median (rates ~events ~secs)
let rate_mean ~events ~secs = mean (rates ~events ~secs)
