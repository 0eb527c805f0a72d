(* Percentiles and medians for the report. *)

(* Nearest-rank percentile [p] (0 < p <= 100) of [samples]. A percentile
   is refused ([None]) unless at least [min_beyond] samples lie beyond its
   rank: a p99 needs 1000 samples, a median 20. *)
let min_beyond = 10

let percentile samples p =
  let n = Array.length samples in
  if p <= 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p";
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  let rank = max rank 1 in
  if n - rank < min_beyond then None
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Some sorted.(rank - 1)
  end

(* The plain median, for figures that are few by nature (one per
   episode): the mean of the two middle values when [n] is even. *)
let median = function
  | [] -> invalid_arg "Stats.median: no values"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
