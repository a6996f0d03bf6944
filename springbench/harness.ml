(* Shared machinery of the benchmark: simulated latency samples per client
   operation and per call kind, the check verdict, per-layer counters
   diffed over the measured phase, the traced-run attribution, and the
   one-line JSON report of a pass. *)

module Clock = Sp_sim.Simclock
module M = Sp_sim.Metrics

(* Growable int buffer: latency samples without a list cell per op. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort Int.compare a;
    a
end

(* Nearest-rank percentile in per-mille of a sorted sample. *)
let percentile sorted per_mille =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (n * per_mille / 1000))

(* The median, taken as the mean of the central tenth of a sorted sample.
   Simulated latencies come in a few exact values (a warm read, a warm
   write ...); a nearest-rank median flips between two of them when the
   seed moves their shares across one half, the central tenth moves with
   the shares smoothly. *)
let median sorted =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let lo = n * 45 / 100 and hi = max ((n * 55 / 100) - 1) (n * 45 / 100) in
    let sum = ref 0 in
    for i = lo to hi do
      sum := !sum + sorted.(i)
    done;
    float_of_int !sum /. float_of_int (hi - lo + 1)
  end

type kind = Read | Write | Sync | Stat | Create | Remove | Open | Readdir

let kind_index = function
  | Read -> 0
  | Write -> 1
  | Sync -> 2
  | Stat -> 3
  | Create -> 4
  | Remove -> 5
  | Open -> 6
  | Readdir -> 7

let kind_names =
  [| "read"; "write"; "sync"; "stat"; "create"; "remove"; "open"; "readdir" |]

(* The ways the self-test corrupts a model in one place; a workload
   applies the one that fits its check just before the end-of-run
   verdict. *)
type mutation = Flip_byte | Advance_synced | Add_name

(* What a workload exposes for the per-layer counters. *)
type world = {
  disks : Sp_blockdev.Disk.t list;
  vmms : Sp_vm.Vmm.t list;
  name_cache : Sp_naming.Name_cache.t option;
  journals : unit -> Sp_sfs.Journal.stats list;
  net : Sp_dfs.Net.t option;
  cluster_clients : unit -> Sp_cluster.Cluster.client_stats list;
}

let no_world =
  {
    disks = [];
    vmms = [];
    name_cache = None;
    journals = (fun () -> []);
    net = None;
    cluster_clients = (fun () -> []);
  }

type t = {
  workload : string;
  seed : int;
  traced : bool;
  mutation : mutation option;
  quick : bool;  (* an eighth of the client operations: the self-test *)
  op_lat : Ibuf.t;  (* simulated ns per timed client operation *)
  calls : Ibuf.t array;  (* simulated ns per top-layer call, by kind *)
  mutable timed_ops : int;
  mutable attempted : int;  (* timed ops plus untimed probe writes *)
  mutable failures : (string * int) list;  (* named failed operations *)
  mutable problems : string list;  (* check failures, newest first *)
  mutable n_problems : int;
  mutable user_bytes : int;  (* bytes handed to write calls in the phase *)
  mutable measuring : bool;
  mutable setup_wall : float;
  setup_calls : int array;  (* set-up calls by kind *)
  setup_call_wall : float array;  (* their wall seconds, by kind *)
  mutable phase_wall : float;
  mutable phase_sim_ns : int;
  mutable switches : int;
  mutable layer_diff : (string * float) list;
  mutable trace : Sp_trace.trace option;
}

let create ?(quick = false) ?mutation ~workload ~seed ~traced () =
  {
    workload;
    seed;
    traced;
    mutation;
    quick;
    op_lat = Ibuf.create ();
    calls = Array.init (Array.length kind_names) (fun _ -> Ibuf.create ());
    timed_ops = 0;
    attempted = 0;
    failures = [];
    problems = [];
    n_problems = 0;
    user_bytes = 0;
    measuring = false;
    setup_wall = 0.;
    setup_calls = Array.make (Array.length kind_names) 0;
    setup_call_wall = Array.make (Array.length kind_names) 0.;
    phase_wall = 0.;
    phase_sim_ns = 0;
    switches = 0;
    layer_diff = [];
    trace = None;
  }

let problem h msg =
  h.n_problems <- h.n_problems + 1;
  if h.n_problems <= 8 then h.problems <- msg :: h.problems

let check h cond msg = if not cond then problem h (msg ())

(* One failed operation of a named fault: it stays attempted, and the
   verdict is unaffected — it speaks of the operations that did not
   fail. *)
let fail h name =
  let n = try List.assoc name h.failures with Not_found -> 0 in
  h.failures <- (name, n + 1) :: List.remove_assoc name h.failures

let attempt h = h.attempted <- h.attempted + 1

(* [call h kind f] times one top-layer call in simulated time; only
   inside the measured phase is the sample kept. *)
let call h kind f =
  if not h.measuring then f ()
  else begin
    let t0 = Clock.now () in
    let r = f () in
    Ibuf.add h.calls.(kind_index kind) (Clock.now () - t0);
    r
  end

(* [op h f] times one client operation (one or more calls). *)
let op h f =
  let t0 = Clock.now () in
  f ();
  Ibuf.add h.op_lat (Clock.now () - t0);
  h.timed_ops <- h.timed_ops + 1;
  attempt h

(* [rounds h ~rounds ops f] runs one client's operations: the sequence
   [ops], [rounds] times over.  The order is fixed and the same for every
   seed — the seed only picks each operation's target — because with
   seeded orders the latency distribution of [sync-write] switched
   between two regimes from seed to seed.  The self-test runs an eighth
   of the rounds. *)
let rounds h ~rounds ops f =
  for _ = 1 to if h.quick then max 1 (rounds / 8) else rounds do
    List.iter (fun o -> op h (fun () -> f o)) ops
  done

let wrote h n = if h.measuring then h.user_bytes <- h.user_bytes + n

(* [setup_call h kind f] times one set-up call on the wall clock: outside
   [Sp_sched.run] one call's wall time is its own. *)
let setup_call h kind f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let i = kind_index kind in
  h.setup_call_wall.(i) <- h.setup_call_wall.(i) +. (Unix.gettimeofday () -. t0);
  h.setup_calls.(i) <- h.setup_calls.(i) + 1;
  r

let setup h f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  h.setup_wall <- h.setup_wall +. (Unix.gettimeofday () -. t0);
  r

(* ---- per-layer counters ------------------------------------------- *)

let raw_counters w =
  let m = M.snapshot () in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let disk = List.map Sp_blockdev.Disk.stats w.disks in
  let js = w.journals () in
  let cs = w.cluster_clients () in
  let gc = Gc.quick_stat () in
  let f = float_of_int in
  [
    ("cross", f m.M.cross_domain_calls);
    ("local", f m.M.local_calls);
    ("faults", f m.M.page_faults);
    ("page_ins", f m.M.page_ins);
    ("page_outs", f m.M.page_outs);
    ("ra_wasted", f m.M.readahead_wasted);
    ("coh_actions", f m.M.coherency_actions);
    ("attr_fetches", f m.M.attr_fetches);
    ("bulk_copies", f m.M.bulk_copies);
    ("bulk_handoffs", f m.M.bulk_handoffs);
    ("queue_ns", f m.M.queue_ns);
    ("disk_reads", f (sum (fun s -> s.Sp_blockdev.Disk.reads) disk));
    ("disk_writes", f (sum (fun s -> s.Sp_blockdev.Disk.writes) disk));
    ("disk_seeks", f (sum (fun s -> s.Sp_blockdev.Disk.seeks) disk));
    ("evictions", f (sum Sp_vm.Vmm.evictions w.vmms));
    ( "nc_hits",
      f (match w.name_cache with Some c -> (Sp_naming.Name_cache.stats c).hits | None -> 0) );
    ( "nc_misses",
      f (match w.name_cache with Some c -> (Sp_naming.Name_cache.stats c).misses | None -> 0) );
    ( "nc_invalidations",
      f
        (match w.name_cache with
        | Some c -> (Sp_naming.Name_cache.stats c).invalidations
        | None -> 0) );
    ("js_commits", f (sum (fun s -> s.Sp_sfs.Journal.js_commits) js));
    ("js_writes", f (sum (fun s -> s.Sp_sfs.Journal.js_journal_writes) js));
    ( "net_messages",
      f (match w.net with Some n -> (Sp_dfs.Net.stats n).messages | None -> 0) );
    ("net_bytes", f (match w.net with Some n -> (Sp_dfs.Net.stats n).bytes | None -> 0));
    ("cl_warm", f (sum (fun s -> s.Sp_cluster.Cluster.cs_warm_hits) cs));
    ("cl_cold", f (sum (fun s -> s.Sp_cluster.Cluster.cs_cold_opens) cs));
    ("cl_inval", f (sum (fun s -> s.Sp_cluster.Cluster.cs_invalidations) cs));
    ("gc_minor_words", Gc.minor_words ());
    ("gc_minor", f gc.Gc.minor_collections);
    ("gc_major", f gc.Gc.major_collections);
  ]

(* Spans the traced pass can hold; a drop fails the verdict. *)
let trace_capacity = 1 lsl 20

(* [measure h w ~seed clients] runs the measured phase: the client tasks
   under one [Sp_sched.run], wall- and simulated-timed, with the layer
   counters diffed around it — inside [Sp_trace.with_tracing] on the
   traced pass. *)
let measure h w ~seed clients =
  let before = raw_counters w in
  let run () = Sp_sched.run ~seed clients in
  h.measuring <- true;
  let t_sim = Clock.now () in
  let t_wall = Unix.gettimeofday () in
  let stats =
    if h.traced then begin
      let st, tr = Sp_trace.with_tracing ~capacity:trace_capacity ~root:"bench" run in
      h.trace <- Some tr;
      st
    end
    else run ()
  in
  h.phase_wall <- Unix.gettimeofday () -. t_wall;
  h.phase_sim_ns <- Clock.now () - t_sim;
  h.measuring <- false;
  h.switches <- stats.Sp_sched.st_switches;
  let after = raw_counters w in
  h.layer_diff <- List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* ---- content and the model's byte comparisons ----------------------- *)

let kb = 1024
let ps = Sp_vm.Vm_types.page_size

(* A 1 KB record that names itself: file id, slot and version in the
   first twelve bytes, a fill derived from them after.  Reading a record
   back identifies exactly which version the file system returned. *)
let record ~file ~slot ~version =
  let b = Bytes.make kb (Char.chr (((file * 7) + (slot * 13) + (version * 29) + 1) land 0xff)) in
  Bytes.set_int32_le b 0 (Int32.of_int file);
  Bytes.set_int32_le b 4 (Int32.of_int slot);
  Bytes.set_int32_le b 8 (Int32.of_int version);
  b

(* The self-test's one flipped byte. *)
let flip_first_byte b = Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1))

let record_version b ~off = Int32.to_int (Bytes.get_int32_le b (off + 8))

(* [equal_at got ~off exp] : [got] equals [exp] from offset [off]. *)
let equal_at got ~off exp =
  let n = Bytes.length got in
  off + n <= Bytes.length exp
  &&
  let rec go i =
    if i + 8 <= n then
      Bytes.get_int64_ne got i = Bytes.get_int64_ne exp (off + i) && go (i + 8)
    else if i < n then Bytes.get got i = Bytes.get exp (off + i) && go (i + 1)
    else true
  in
  go 0

let counter = ref 0

(* A fresh simulated world under the paper's cost model, and a name for
   its instances that no earlier run in this process used. *)
let in_world prefix f =
  incr counter;
  Clock.reset ();
  M.reset ();
  Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 (fun () ->
      f (Printf.sprintf "%s%d" prefix !counter))
