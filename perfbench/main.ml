(* The benchmark driver: one process, one thread, the library's public calls
   made directly. Each workload is a Retailer learning loop plus a maintained
   update stream served through [Serve]; what varies between workloads is
   the learner and the input sizes (see [workloads]). Every result is checked
   against an oracle that does not share the code path it checks.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run is a sequence of cycles, each a few set-ups, one pass over the
   update stream and some training calls, repeated until the run's seconds
   have passed. Every end-to-end metric is the median over the cycles of a
   per-cycle value, so each one samples the whole run. Times are scaled by
   the speed of a fixed reference kernel measured during the same cycle
   (see [Reference]).

   With [--trace 0] the last stdout line carries the end-to-end metrics;
   with [--trace 1] it carries the per-layer metrics of a separate traced
   pass. Header lines before it start with '#'. *)

open Relational
module Batch = Aggregates.Batch
module Spec = Aggregates.Spec
module Retailer = Datagen.Retailer
module Stream_gen = Datagen.Stream_gen
module Maintainer = Fivm.Maintainer
module Decision_tree = Ml.Decision_tree

let now = Util.Timing.now

(* ------------------------------------------------------------ workloads *)

type learner = Covar | Tree

type workload = {
  name : string;
  learner : learner;
  learn_scale : float option;  (** [None]: learn over the stream's data *)
  stream_scale : float;
  delta_batch : int;  (** updates per [Serve.apply_deltas] call *)
  setups : int;  (** set-ups per cycle *)
  train_calls : int;  (** training calls per cycle *)
}

(* tree-learn is the Fig. 5 regime of many filtered batches at one dominant
   root; stream-serve is the write-heavy maintained stream, and its training
   call is the Fig. 3 covariance pipeline over the stream's own data. Each
   metric must be measured on every workload, so tree-learn also plays a
   smaller stream. Short set-ups and training calls repeat within a cycle,
   so that each cycle's mean rests on several of them. *)
let workloads =
  [
    { name = "tree-learn"; learner = Tree; learn_scale = Some 0.1;
      stream_scale = 0.1; delta_batch = 8; setups = 6; train_calls = 1 };
    { name = "stream-serve"; learner = Covar; learn_scale = None;
      stream_scale = 0.25; delta_batch = 16; setups = 3; train_calls = 8 };
  ]

let min_cycles = 3
let hits_per_epoch = 8
let miss_every = 64
let churn = 0.2
let response = "inventoryunits"
let tree_params = { Decision_tree.default_params with max_depth = 2 }
let features = Retailer.features
let cov_batch = Batch.covariance_numeric Retailer.ivm_features
let mi_batch = Batch.mutual_information Retailer.mi_attrs

let training_batch w db =
  match w.learner with
  | Covar -> Batch.covariance features
  | Tree -> Batch.decision_node ~db features

(* ------------------------------------------------------------ reference *)

(* On a host shared with other tenants a core can run fast or slow for
   seconds to minutes at a time, about 1.35x apart, and a run cannot
   outlast those spells. So the benchmark times a fixed kernel of its own,
   which no change to the library can touch, every [interval] seconds
   between operations, and scales each cycle's times to a core on which
   the kernel takes [nominal] seconds. The kernel does not allocate, so it
   adds nothing to the GC's work, and its table fits in a core's L2
   cache. *)
module Reference = struct
  let nominal = 0.4e-3
  let interval = 0.05
  let table = Array.make 32768 0

  let kernel () =
    let x = ref 12345 and acc = ref 0.0 in
    for i = 0 to 99_999 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let k = !x land 0x7fff in
      table.(k) <- table.(k) + i;
      acc := !acc +. float_of_int table.((k * 7) land 0x7fff)
    done;
    ignore (Sys.opaque_identity !acc)

  let last = ref neg_infinity
  let total = ref 0.0
  let count = ref 0

  (* Time the kernel if [interval] has passed since it last ran. *)
  let sample () =
    let t0 = now () in
    if t0 -. !last >= interval then begin
      kernel ();
      let t1 = now () in
      total := !total +. (t1 -. t0);
      incr count;
      last := t1
    end

  let restart () =
    total := 0.0;
    count := 0;
    last := neg_infinity

  (* The mean kernel time since [restart]. *)
  let mean () = if !count = 0 then nominal else !total /. float_of_int !count
end

(* ------------------------------------------------------------- failures *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("perfbench: check failed: " ^ msg))
    fmt

(* Run one operation, counting it as attempted and, if it raises, failed. *)
let op name f =
  Reference.sample ();
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
      fail "%s raised %s" name (Printexc.to_string e);
      None

(* -------------------------------------------------------------- tracing *)

(* Spans live in memory and are summarised when the run ends. With tracing
   off, [span] is a plain call. *)
let tracing = ref false
let spans : Bench_stats.span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with [] -> None | p :: _ -> Some p in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        spans :=
          { Bench_stats.id; parent; name; start; stop;
            minor_words = Gc.minor_words () -. w0 }
          :: !spans)
  end

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let timed_words f =
  let w0 = Gc.minor_words () in
  let v, t = timed f in
  (v, t, Gc.minor_words () -. w0)

(* -------------------------------------------------------------- oracles *)

(* A result with its zero groups dropped, in key order: an absent group
   reads as 0 ([Spec.lookup]), and engines differ in whether they list an
   empty filtered scalar as [] or as [([], 0.)]. *)
let sort_result (r : Spec.result) =
  List.sort compare (List.filter (fun (_, v) -> v <> 0.0) r)

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rel_close ~eps x y =
  Float.abs (x -. y) <= eps *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

(* Two batch answers agree when each aggregate's groups agree under [close],
   in any order of aggregates and groups. *)
let results_match ~close a b =
  let same ra rb =
    let ra = sort_result ra and rb = sort_result rb in
    List.length ra = List.length rb
    && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && close va vb) ra rb
  in
  let tb = Hashtbl.of_seq (List.to_seq b) in
  List.length a = List.length b
  && List.for_all
       (fun (id, ra) ->
         match Hashtbl.find_opt tb id with Some rb -> same ra rb | None -> false)
       a

let triple_bit_equal (x : Rings.Covariance.t) (y : Rings.Covariance.t) =
  let flat q = Array.concat (Array.to_list (Util.Mat.to_arrays q)) in
  let arr_eq a b = Array.length a = Array.length b && Array.for_all2 bits_equal a b in
  bits_equal x.c y.c && arr_eq x.s y.s && arr_eq (flat x.q) (flat y.q)

let rec same_splits (a : Decision_tree.tree) (b : Decision_tree.tree) =
  match (a, b) with
  | Leaf _, Leaf _ -> true
  | Node x, Node y ->
      x.split = y.split && same_splits x.left y.left && same_splits x.right y.right
  | _ -> false

(* Two splits can select the same rows (on one seed, rgn_cd = 1 and
   avghhi < 67986.5 do), so their gains tie exactly and summation order
   decides which one a learner picks. Such trees still predict alike on
   every row of the join. *)
let same_tree join a b =
  let n = Relation.cardinality join in
  let rec same_predictions i =
    i >= n
    || (let row = Relation.value_at join i in
        rel_close ~eps:1e-9 (Decision_tree.predict a row) (Decision_tree.predict b row)
        && same_predictions (i + 1))
  in
  same_splits a b || same_predictions 0

(* The learner's batch through LMFAO against a flat scan of the
   materialised join. *)
let check_learn_batch w db =
  incr attempted;
  let batch = training_batch w db in
  let engine = (Lmfao.Engine.eval db batch).keyed in
  let flat = Batch.eval_flat (Database.materialise_join db) batch in
  if not (results_match ~close:(rel_close ~eps:1e-9) engine flat) then
    fail "%s: LMFAO batch differs from eval_flat over the join" w.name

(* ------------------------------------------------------------- learning *)

type model = Linreg of string | Tree_model of Decision_tree.tree

type fit = { model : model; stats_s : float; solve_s : float }

let encode_linreg m =
  let b = Buffer.create 256 in
  Ml.Linreg.encode b m;
  Buffer.contents b

let train w db =
  match w.learner with
  | Covar ->
      span "ml.timed_fit" (fun () ->
          let r = Ml.Model_intf.timed_fit (module Ml.Linreg.Model) db features in
          { model = Linreg (encode_linreg r.model);
            stats_s = r.stats_seconds; solve_s = r.solve_seconds })
  | Tree ->
      span "ml.tree_train" (fun () ->
          let t = Decision_tree.train ~params:tree_params db features in
          { model = Tree_model t; stats_s = nan; solve_s = nan })

(* Every fit must repeat the first one exactly; the first tree must also
   match the flat-scan reference learner. *)
let check_fit w db ~first fit =
  match (first, fit.model) with
  | None, Tree_model t ->
      let thresholds = Decision_tree.thresholds_of_db db features in
      let join = Database.materialise_join db in
      let reference = Decision_tree.train_flat ~params:tree_params join features ~thresholds in
      if not (same_tree join t reference) then
        fail "%s: tree differs from train_flat" w.name
  | None, Linreg _ -> ()
  | Some (Linreg a), Linreg b when a = b -> ()
  | Some (Tree_model a), Tree_model b when a = b -> ()
  | Some _, _ -> fail "%s: a repeated fit produced a different model" w.name

(* --------------------------------------------------------------- stream *)

type env = {
  learn_db : Database.t;
  stream_db : Database.t;
  warmup : Fivm.Delta.update list;
  insert_batches : Fivm.Delta.update list array;
  churn_batches : Fivm.Delta.update list array;
  srv : Serve.t;
  model : string;
  generate_s : float;  (** time spent in [Retailer.generate] *)
  stats0 : Serve.stats;  (** the server's counters when set-up ended *)
}

let updates_in batches = Array.fold_left (fun n b -> n + List.length b) 0 batches

let split_at n l =
  let rec go n acc = function
    | x :: tl when n > 0 -> go (n - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  go n [] l

let rec chunks k = function
  | [] -> []
  | l ->
      let c, rest = split_at k l in
      c :: chunks k rest

(* Data generation, stream build, server creation and warm-up prefix: the
   dimension inserts plus a tenth of the fact inserts, then the model
   registration and one request of each served batch to fill the cache. *)
let setup w ~seed =
  let generate_s = ref 0.0 in
  let generate scale =
    let db, t =
      timed (fun () -> span "datagen.generate" (fun () -> Retailer.generate ~scale ~seed ()))
    in
    generate_s := !generate_s +. t;
    db
  in
  let base = generate w.stream_scale in
  let learn_db =
    match w.learn_scale with
    | None -> None
    | Some s when s = w.stream_scale -> Some base
    | Some s -> Some (generate s)
  in
  span "datagen.stream" @@ fun () ->
  let stream_db = Stream_gen.lattice_database base in
  let updates = Stream_gen.with_churn ~seed ~churn stream_db in
  let n_tuples = Database.total_cardinality stream_db in
  let n_fact = Relation.cardinality (Stream_gen.fact_relation stream_db) in
  let inserts, churned = split_at n_tuples updates in
  let warmup, inserts = split_at (n_tuples - n_fact + (n_fact / 10)) inserts in
  let srv =
    span "serve.create" (fun () ->
        Serve.create Maintainer.F_ivm stream_db ~features:Retailer.ivm_features)
  in
  span "serve.apply_deltas" (fun () -> Serve.apply_deltas srv warmup);
  let model =
    Serve.Model.register srv ~max_staleness:0
      (Ml.Models.find_exn "linreg-closed") ~response
  in
  ignore (Serve.serve srv cov_batch);
  ignore (Serve.serve srv mi_batch);
  {
    learn_db = Option.value learn_db ~default:stream_db;
    stream_db;
    warmup;
    insert_batches = Array.of_list (chunks w.delta_batch inserts);
    churn_batches = Array.of_list (chunks w.delta_batch churned);
    srv;
    model;
    generate_s = !generate_s;
    stats0 = Serve.stats srv;
  }

(* The maintained triple against recomputation, and the latest hit and miss
   answers against flat scans of the snapshot's materialised join. *)
let check_served w env ~hit ~miss =
  let m = Serve.maintainer env.srv in
  if not (triple_bit_equal (Maintainer.covariance m) (Maintainer.recompute m)) then
    fail "%s: maintained triple differs from recompute" w.name;
  let flat = Database.materialise_join (Serve.snapshot env.srv) in
  Option.iter
    (fun hit ->
      if not (results_match ~close:bits_equal hit (Batch.eval_flat flat cov_batch)) then
        fail "%s: covariance hit differs from eval_flat" w.name)
    hit;
  if not (results_match ~close:bits_equal miss (Batch.eval_flat flat mi_batch)) then
    fail "%s: mutual-information miss differs from eval_flat" w.name

(* A growable buffer of unboxed floats: per-request samples kept in lists of
   boxed floats would add to the live heap that every later major GC has to
   mark, and so slow each cycle a little more than the one before. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let grown = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

(* The samples of one cycle: lists newest first, buffers in stream order. *)
type samples = {
  mutable setups : float list;
  mutable generates : float list;
  mutable insert_updates : int;
  mutable churn_updates : int;
  insert_writes : buf;
  churn_writes : buf;
  writes : buf;  (** every write *)
  hits : buf;
  misses : buf;
  mutable fits : fit list;
  mutable fit_times : float list;
  mutable server_words : float;  (** reachable from the server after the stream *)
  mutable reference_s : float;  (** mean time of the reference kernel *)
}

let fresh_samples () =
  { setups = []; generates = []; insert_updates = 0; churn_updates = 0;
    insert_writes = buf (); churn_writes = buf (); writes = buf (); hits = buf ();
    misses = buf (); fits = []; fit_times = []; server_words = nan;
    reference_s = nan }

let probe_row _ = Value.Float 1.0

let miss_request w env s =
  let before = (Serve.stats env.srv).misses in
  let answer, t = timed (fun () -> span "serve.miss" (fun () -> Serve.serve env.srv mi_batch)) in
  if (Serve.stats env.srv).misses <> before + 1 then
    fail "%s: mutual-information request was not a miss" w.name;
  push s.misses t;
  answer

(* One epoch: a delta batch, [hits_per_epoch] covariance requests, a model
   prediction and, every [miss_every] epochs, a miss, checked if [check]. *)
let epoch w env s ~check ~epoch_no ~churn_phase batch =
  let write () =
    span "serve.apply_deltas" (fun () -> Serve.apply_deltas env.srv batch)
  in
  (match op "apply_deltas" (fun () -> timed write) with
  | Some ((), t) ->
      push s.writes t;
      push (if churn_phase then s.churn_writes else s.insert_writes) t
  | None -> ());
  let last_hit = ref None in
  for _ = 1 to hits_per_epoch do
    let before = (Serve.stats env.srv).hits in
    match
      op "serve" (fun () ->
          timed (fun () -> span "serve.hit" (fun () -> Serve.serve env.srv cov_batch)))
    with
    | Some (answer, t) ->
        if (Serve.stats env.srv).hits <> before + 1 then
          fail "%s: covariance request was not a hit" w.name;
        push s.hits t;
        last_hit := Some answer
    | None -> ()
  done;
  (match
     op "predict" (fun () ->
         span "serve.predict" (fun () -> Serve.Model.predict env.srv env.model probe_row))
   with
  | Some (p, tag) ->
      if tag <> Serve.epoch env.srv || Float.is_nan p then
        fail "%s: stale or undefined prediction" w.name
  | None -> ());
  if epoch_no mod miss_every = 0 then
    match op "serve" (fun () -> miss_request w env s) with
    | Some miss -> if check then check_served w env ~hit:!last_hit ~miss
    | None -> ()

(* The whole stream; the served state is checked at every miss epoch if
   [check], and always at the end. *)
let run_stream w env s ~check =
  s.insert_updates <- s.insert_updates + updates_in env.insert_batches;
  s.churn_updates <- s.churn_updates + updates_in env.churn_batches;
  let n = ref 0 in
  let go churn_phase =
    Array.iter (fun b ->
        incr n;
        epoch w env s ~check ~epoch_no:!n ~churn_phase b)
  in
  go false env.insert_batches;
  go true env.churn_batches;
  (* the end-of-stream check, on an unmeasured miss *)
  match op "serve" (fun () -> Serve.serve env.srv mi_batch) with
  | Some miss -> check_served w env ~hit:None ~miss
  | None -> ()

(* Cycles until the next one would end more than half a cycle past
   [seconds] (at least [min_cycles]), or exactly [cycles] of them. A cycle
   sets up [w.setups] times, plays the whole update stream through the last
   set-up's server and makes [w.train_calls] training calls on its data.
   The first cycle checks the served state at every miss epoch; the stream
   and its answers repeat exactly, so later cycles check it at the end
   only. Every phase starts on a compacted heap, not on the major-GC debt
   the previous one left behind. Returns the cycles' samples, oldest first,
   the last cycle's environment and the pass's wall time. *)
let measured_pass w ~seed ~seconds ?cycles () =
  let t0 = now () in
  let first = ref None in
  let cycle () =
    let s = fresh_samples () in
    Reference.restart ();
    let set_up () =
      Gc.compact ();
      let env, t = timed (fun () -> setup w ~seed) in
      s.setups <- t :: s.setups;
      s.generates <- env.generate_s :: s.generates;
      Reference.sample ();
      env
    in
    let env = ref (set_up ()) in
    for _ = 2 to w.setups do
      env := set_up ()
    done;
    let env = !env in
    Gc.compact ();
    run_stream w env s ~check:(!first = None);
    s.server_words <- float_of_int (Obj.reachable_words (Obj.repr env.srv));
    for _ = 1 to w.train_calls do
      Gc.compact ();
      match op "train" (fun () -> timed (fun () -> train w env.learn_db)) with
      | Some (fit, t) ->
          check_fit w env.learn_db ~first:!first fit;
          if !first = None then first := Some fit.model;
          s.fits <- fit :: s.fits;
          s.fit_times <- t :: s.fit_times;
          Reference.sample ()
      | None -> ()
    done;
    s.reference_s <- Reference.mean ();
    (s, env)
  in
  let enough n =
    let elapsed = now () -. t0 in
    match cycles with
    | Some c -> n >= c
    | None ->
        n >= min_cycles
        && elapsed +. (elapsed /. float_of_int n /. 2.0) >= float_of_int seconds
  in
  let rec go acc n =
    let s, env = cycle () in
    if enough (n + 1) then (List.rev (s :: acc), env) else go (s :: acc) (n + 1)
  in
  let cycles, env = go [] 0 in
  (cycles, env, now () -. t0)

(* ------------------------------------------------------------- reporting *)

type metric = { mname : string; value : float; unit_ : string; note : string }

let metric ?(note = "") mname unit_ value = { mname; value; unit_; note }
let arr l = Array.of_list l

(* The median and the highest percentile that leaves at least ten samples
   beyond it, pooled over the whole pass, as a note for the [#] lines. *)
let distribution scale a =
  let n = Array.length a in
  let p50 = Printf.sprintf "p50 %.6g" (scale *. Bench_stats.percentile a 50.0) in
  match Bench_stats.tail_percentile n with
  | Some top when top > 50.0 ->
      Printf.sprintf "%s, p%g %.6g of %d samples" p50 top
        (scale *. Bench_stats.percentile a top) n
  | _ -> Printf.sprintf "%s of %d samples" p50 n

type kind = Time | Rate | Size

(* The median over the cycles of a per-cycle value; [f] gives [None] for a
   cycle without samples, which only a failed operation leaves. A time is
   scaled by [Reference.nominal] over the cycle's kernel time and a rate by
   the inverse. The note lists the scaled per-cycle values in cycle order
   and the median of the unscaled ones. *)
let over_cycles ?note kind mname unit_ f cycles =
  let raw = List.filter_map (fun s -> Option.map (fun v -> (s, v)) (f s)) cycles in
  let scaled =
    List.map
      (fun (s, v) ->
        match kind with
        | Time -> Bench_stats.scale_to_reference ~nominal:Reference.nominal
                    ~measured:s.reference_s v
        | Rate -> Bench_stats.scale_to_reference ~nominal:s.reference_s
                    ~measured:Reference.nominal v
        | Size -> v)
      raw
  in
  let median = function [] -> 0.0 | v -> Bench_stats.median (arr v) in
  let note =
    Printf.sprintf "median of %d cycles [%s]%s%s" (List.length scaled)
      (String.concat " " (List.map (Printf.sprintf "%.4g") scaled))
      (if kind = Size then "" else Printf.sprintf "; unscaled %.6g" (median (List.map snd raw)))
      (match note with None -> "" | Some n -> "; pooled unscaled " ^ n)
  in
  metric ~note mname unit_ (median scaled)

let mean_of scale b =
  if b.len = 0 then None else Some (scale *. Bench_stats.mean (contents b))

let end_to_end cycles =
  let pooled f = Array.concat (List.map (fun s -> contents (f s)) cycles) in
  let mb words = Some (words *. float_of_int (Sys.word_size / 8) /. 1048576.0) in
  let tput updates writes s =
    let b = writes s in
    if b.len = 0 then None
    else Some (Bench_stats.throughput ~updates:(updates s) (Array.to_list (contents b)))
  in
  let mean_list = function [] -> None | xs -> Some (Bench_stats.mean (arr xs)) in
  [
    over_cycles Time "setup_s" "s" (fun s -> mean_list s.setups) cycles;
    over_cycles Time "train_s" "s" (fun s -> mean_list s.fit_times) cycles;
    over_cycles Rate "insert_tput" "updates/s"
      (tput (fun s -> s.insert_updates) (fun s -> s.insert_writes)) cycles
      ~note:(distribution 1e3 (pooled (fun s -> s.insert_writes)) ^ " (write ms)");
    over_cycles Rate "churn_tput" "updates/s"
      (tput (fun s -> s.churn_updates) (fun s -> s.churn_writes)) cycles
      ~note:(distribution 1e3 (pooled (fun s -> s.churn_writes)) ^ " (write ms)");
    over_cycles Time "hit_us" "us" (fun s -> mean_of 1e6 s.hits) cycles
      ~note:(distribution 1e6 (pooled (fun s -> s.hits)));
    over_cycles Time "miss_ms" "ms" (fun s -> mean_of 1e3 s.misses) cycles
      ~note:(distribution 1e3 (pooled (fun s -> s.misses)));
    over_cycles Size "server_mb" "MB" (fun s -> mb s.server_words) cycles;
  ]

(* Per-update time and minor words of a bare maintainer replaying the
   server's batches, and the bare time of every batch in stream order. *)
let bare_replay env =
  let m = Maintainer.create Maintainer.F_ivm env.stream_db ~features:Retailer.ivm_features in
  Maintainer.apply_batch m env.warmup;
  let phase batches =
    Array.map (fun b -> timed_words (fun () -> Maintainer.apply_batch m b)) batches
  in
  let ins = phase env.insert_batches and ch = phase env.churn_batches in
  let per_update batches runs =
    let u = float_of_int (updates_in batches) in
    ( Array.fold_left (fun a ((), t, _) -> a +. t) 0.0 runs /. u,
      Array.fold_left (fun a ((), _, w) -> a +. w) 0.0 runs /. u )
  in
  (per_update env.insert_batches ins, per_update env.churn_batches ch,
   Array.map (fun ((), t, _) -> t) (Array.append ins ch))

let count_spans name roots =
  let rec go acc s =
    List.fold_left go
      (if Obs.span_name s = name then acc + 1 else acc)
      (Obs.span_children s)
  in
  List.fold_left go 0 roots

let median_metric name unit_ scale xs =
  metric ~note:(Printf.sprintf "median of %d" (List.length xs)) name unit_
    (scale *. Bench_stats.median (arr xs))

(* [cycles] are the traced pass's; [env] is its last cycle's environment. *)
let per_layer w env ~overhead_pct ~gc cycles =
  let last = List.nth cycles (List.length cycles - 1) in
  let pooled f = List.concat_map f cycles in
  let srv = env.srv in
  let batch = training_batch w env.learn_db in
  (* Plan *)
  let pstats = Lmfao.Plan.fresh_stats () in
  let (), plan_s =
    timed (fun () ->
        span "lmfao.plan" (fun () ->
            let jt, groups =
              Lmfao.Plan.group_by_root Lmfao.Plan.default_options env.learn_db batch
            in
            List.iter
              (fun (root, specs) ->
                ignore (Lmfao.Plan.build Lmfao.Plan.default_options ~stats:pstats jt ~root specs))
              groups))
  in
  let _, eval_s, eval_w =
    timed_words (fun () -> span "lmfao.eval" (fun () -> Lmfao.Engine.eval env.learn_db batch))
  in
  let compile_run db b =
    let c, compile_s =
      timed (fun () -> span "compile.compile" (fun () -> Compile.Engine.compile db b))
    in
    let _, run_s, run_w =
      timed_words (fun () -> span "compile.run" (fun () -> Compile.Engine.run c db))
    in
    (compile_s, run_s, run_w)
  in
  let compile_s, run_s, run_w = compile_run env.learn_db batch in
  let snapshot_ms =
    List.init 5 (fun _ ->
        snd (timed (fun () ->
                 span "fivm.snapshot" (fun () -> Maintainer.snapshot (Serve.maintainer srv))))
        *. 1e3)
  in
  let mi_compile_s, mi_run_s, _ = compile_run (Serve.snapshot srv) mi_batch in
  let fingerprint_us =
    List.init 2000 (fun _ -> snd (timed (fun () -> Batch.fingerprint cov_batch)) *. 1e6)
  in
  let (), thresholds_s =
    timed (fun () ->
        span "ml.thresholds" (fun () ->
            ignore (Decision_tree.thresholds_of_db env.learn_db features)))
  in
  (* the timed_fit split; the tree learner has none, so probe one fit *)
  let fit_split =
    match w.learner with
    | Covar -> pooled (fun s -> s.fits)
    | Tree ->
        let r = Ml.Model_intf.timed_fit (module Ml.Linreg.Model) env.learn_db features in
        [ { model = Linreg ""; stats_s = r.stats_seconds; solve_s = r.solve_seconds } ]
  in
  (* LMFAO batches per training call, read from the program's own spans *)
  Obs.reset ();
  Obs.with_enabled true (fun () -> ignore (train w env.learn_db));
  let node_batches = count_spans "lmfao.eval" (Obs.spans ()) in
  Obs.reset ();
  let packed, _ = Serve.Model.packed srv env.model in
  let refresh_us =
    List.init 200 (fun _ ->
        snd
          (timed (fun () ->
               span "ml.refresh" (fun () ->
                   Ml.Model_intf.refresh_packed packed
                     (Ml.Model_intf.moments_of_covariance
                        (Maintainer.covariance (Serve.maintainer srv))
                        ~features:Retailer.ivm_features ~response))))
        *. 1e6)
  in
  let (ins_t, ins_w), (ch_t, ch_w), bare =
    span "fivm.bare_replay" (fun () -> bare_replay env)
  in
  let served = contents last.writes in
  let overhead_us =
    Array.mapi (fun i t -> (t -. bare.(i)) *. 1e6) served
  in
  let st = Serve.stats srv in
  let d f = float_of_int (f st - f env.stats0) in
  let hits = d (fun x -> x.Serve.hits) and misses = d (fun x -> x.Serve.misses) in
  let m = Serve.maintainer srv in
  let minor_mw, majors, top_heap_mb = gc in
  let med = Bench_stats.median in
  [
    median_metric "datagen.generate_s" "s" 1.0 (pooled (fun s -> s.generates));
    metric "aggregates.batch_aggs" "count" (float_of_int (Batch.size batch));
    metric "aggregates.fingerprint_us" "us" (med (arr fingerprint_us));
    metric "lmfao.plan_s" "s" plan_s;
    metric "lmfao.views" "count" (float_of_int pstats.views);
    metric "lmfao.partials" "count" (float_of_int pstats.partials);
    metric "lmfao.shared_away" "count" (float_of_int pstats.shared_away);
    metric "lmfao.eval_s" "s" eval_s;
    metric "lmfao.eval_minor_mw" "Mwords" (eval_w /. 1e6);
    metric "compile.compile_s" "s" compile_s;
    metric "compile.run_s" "s" run_s;
    metric "compile.run_minor_mw" "Mwords" (run_w /. 1e6);
    metric "compile.mi_compile_s" "s" mi_compile_s;
    metric "compile.mi_run_s" "s" mi_run_s;
    median_metric "ml.stats_s" "s" 1.0 (List.map (fun f -> f.stats_s) fit_split);
    median_metric "ml.solve_s" "s" 1.0 (List.map (fun f -> f.solve_s) fit_split);
    metric "ml.thresholds_s" "s" thresholds_s;
    metric "ml.node_batches" "count" (float_of_int node_batches);
    metric "ml.refresh_us" "us" (med (arr refresh_us));
    metric "fivm.insert_us" "us" (ins_t *. 1e6);
    metric "fivm.churn_us" "us" (ch_t *. 1e6);
    metric "fivm.insert_minor_words" "words" ins_w;
    metric "fivm.churn_minor_words" "words" ch_w;
    metric "fivm.view_rows" "count" (float_of_int (Maintainer.view_rows m));
    metric "fivm.storage_tuples" "count"
      (float_of_int (Fivm.Storage.total_tuples (Maintainer.storage m)));
    metric "fivm.snapshot_ms" "ms" (med (arr snapshot_ms));
    metric "serve.apply_overhead_us" "us" (med overhead_us);
    metric "serve.hit_ratio" "fraction" (hits /. (hits +. misses));
    metric "serve.refreshes" "count" (d (fun x -> x.Serve.refreshes));
    metric "serve.invalidations" "count" (d (fun x -> x.Serve.invalidations));
    metric "serve.model_refreshes" "count" (d (fun x -> x.Serve.model_refreshes));
    metric "gc.minor_mw" "Mwords" minor_mw;
    metric "gc.major_collections" "count" majors;
    metric "gc.top_heap_mb" "MB" top_heap_mb;
    metric "trace.overhead_pct" "%" overhead_pct;
  ]

(* Self time per span name over the traced pass and the probes. *)
let print_self_times () =
  print_endline "# self time by span (traced pass, its set-ups and the probes)";
  List.iter
    (fun (name, self) -> Printf.printf "#   %-26s %12.6f s\n" name self)
    (Bench_stats.self_by_name (List.rev !spans))

(* ----------------------------------------------------------------- main *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  List.iter
    (fun m ->
      Printf.printf "# %-28s %22s %-10s %s\n" m.mname (json_number m.value) m.unit_ m.note)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (json_number m.value)
             m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed body

let usage () =
  prerr_endline
    "usage: main.exe --workload tree-learn|stream-serve --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := int_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := int_of_string v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  if Util.Pool.num_domains () <> 1 then begin
    prerr_endline "perfbench: run with BORG_DOMAINS=1";
    exit 2
  end;
  let seed = !seed and seconds = !seconds in
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d learn_scale=%s \
     stream_scale=%g delta_batch=%d\n"
    w.name seed seconds !trace
    (match w.learn_scale with Some s -> Printf.sprintf "%g" s | None -> "stream")
    w.stream_scale w.delta_batch;
  Printf.printf "# machine nproc=%d ocaml=%s profile=%s BORG_DOMAINS=%s commit=%s\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Build_info.profile
    (Option.value (Sys.getenv_opt "BORG_DOMAINS") ~default:"unset")
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown");
  let gc0 = Gc.quick_stat () in
  let cycles, env, untraced_s = measured_pass w ~seed ~seconds () in
  let gc1 = Gc.quick_stat () in
  check_learn_batch w env.learn_db;
  Printf.printf "# shape insert_updates=%d churn_updates=%d epochs=%d cycles=%d\n"
    (updates_in env.insert_batches) (updates_in env.churn_batches)
    (Array.length env.insert_batches + Array.length env.churn_batches)
    (List.length cycles);
  Printf.printf "# reference kernel ms per cycle [%s], nominal %g\n"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.4g" (s.reference_s *. 1e3)) cycles))
    (Reference.nominal *. 1e3);
  if !trace = 0 then print_result (end_to_end cycles)
  else begin
    (* the traced pass repeats the same work *)
    tracing := true;
    let traced, traced_env, traced_s =
      measured_pass w ~seed ~seconds ~cycles:(List.length cycles) ()
    in
    (* each pass's wall time at the reference speed, so that a slow spell
       during one pass does not read as tracing overhead *)
    let at_reference cycles wall =
      Bench_stats.scale_to_reference ~nominal:Reference.nominal
        ~measured:(Bench_stats.mean (arr (List.map (fun s -> s.reference_s) cycles)))
        wall
    in
    let metrics =
      per_layer w traced_env
        ~overhead_pct:
          ((at_reference traced traced_s /. at_reference cycles untraced_s -. 1.0) *. 100.0)
        ~gc:((gc1.minor_words -. gc0.minor_words) /. 1e6,
             float_of_int (gc1.major_collections - gc0.major_collections),
             float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
        traced
    in
    print_self_times ();
    print_result metrics
  end
