(* The benchmark's own arithmetic, kept free of the library so that it can be
   tested on hand-made inputs: order statistics under the tail-percentile
   rule, means, scaling to a reference speed, throughput, and span self
   time. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

(* The nearest rank of the [p]-th percentile among [n] samples: the count
   of samples at or below it, ceil (p n / 100), with the product rounded
   first so that p99.9 of 10000 is rank 9990, not 9991. *)
let rank n p =
  let x = p /. 100.0 *. float_of_int n in
  let r = Float.round x in
  int_of_float (if Float.abs (x -. r) < 1e-9 then r else Float.ceil x)

(* Nearest-rank percentile: the smallest sample with at least [p] percent of
   the samples at or below it. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Bench_stats.percentile: no samples";
  let a = sorted samples in
  a.(max 0 (min (n - 1) (rank n p - 1)))

let median samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Bench_stats.median: no samples";
  let a = sorted samples in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Bench_stats.mean: no samples";
  Array.fold_left ( +. ) 0.0 samples /. float_of_int n

(* A time [v] measured while a reference kernel took [measured] seconds,
   scaled to a core on which it takes [nominal]: the same work at that
   core's speed. A rate scales by the inverse, so swap the two. *)
let scale_to_reference ~nominal ~measured v =
  if not (measured > 0.0) then invalid_arg "Bench_stats.scale_to_reference";
  v *. nominal /. measured

(* Samples strictly above the nearest-rank [p]-th percentile position. *)
let beyond n p = n - rank n p

let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest candidate percentile that leaves at least ten samples beyond
   it, or [None] when even the median does not. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond n p >= 10) candidates

(* Updates applied per second of write time: the throughput of a phase is
   its update count over the summed duration of the calls that applied
   them, so time spent between writes (reads, checks) does not dilute it. *)
let throughput ~updates durations =
  let total = List.fold_left ( +. ) 0.0 durations in
  if total <= 0.0 then invalid_arg "Bench_stats.throughput: no write time";
  float_of_int updates /. total

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  stop : float;
  minor_words : float;
}

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Each span paired with its self time: its duration minus the part of it
   that its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun c ->
      Option.iter (fun p -> Hashtbl.add children p (c.start, c.stop)) c.parent)
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Self time summed per span name, in order of first appearance. *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name self
      | Some prev -> Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order
