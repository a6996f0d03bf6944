(* One pass's metrics, derived from what [Harness] collected, and its
   machine-readable record. *)

module H = Harness

(* ---- traced-run attribution --------------------------------------- *)

(* Serving-domain names map to layer types by the naming conventions of
   the stacks the workloads build: scheduler tasks and the user domain
   are the client (cluster clients run in ["<name>-client:<node>"]
   domains), ["(kernel)"] the nucleus, ["vmm:"] a VMM, [".disk"] an SFS
   disk layer (its group-commit span carries no domain), [".store"] a
   cluster shard's mirror over its twin disk layers (one domain), [".dfs"]
   a DFS front, and an SFS top's own name its coherency layer. *)
let layer_type (sp : Sp_trace.span) =
  let d = sp.Sp_trace.sp_dst in
  let has_suffix s = String.ends_with ~suffix:s d in
  if String.starts_with ~prefix:"task:" d || d = "user" then "client"
  else if String.starts_with ~prefix:"vmm:" d then "vmm"
  else if d = "(kernel)" then "kernel"
  else if has_suffix ".disk" || sp.sp_op = "journal.commit" then "disk_layer"
  else if has_suffix ".store" then "mirrorfs"
  else if has_suffix ".dfs" then "dfs"
  else
    match String.index_opt d ':' with
    | Some i when String.ends_with ~suffix:"-client" (String.sub d 0 i) -> "client"
    | _ -> "coherency"

let self_types =
  [ "client"; "kernel"; "vmm"; "coherency"; "disk_layer"; "dfs"; "mirrorfs" ]

let queue_types = [ "coherency"; "disk_layer"; "dfs"; "mirrorfs" ]

(* Self and queue time per layer type; checks that no span was dropped
   and that the self times partition the trace's busy time. *)
let attribute h (tr : Sp_trace.trace) =
  let self = Hashtbl.create 8 and queue = Hashtbl.create 8 in
  let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let total = ref 0 in
  List.iter
    (fun sp ->
      let ty = layer_type sp in
      add self ty sp.Sp_trace.sp_self_ns;
      add queue ty sp.sp_queue_ns;
      total := !total + sp.sp_self_ns)
    tr.Sp_trace.tr_spans;
  H.check h (tr.tr_dropped = 0) (fun () ->
      Printf.sprintf "trace dropped %d spans" tr.tr_dropped);
  H.check h (!total = tr.tr_busy_ns) (fun () ->
      Printf.sprintf "span self times sum to %d ns, busy time is %d ns" !total tr.tr_busy_ns);
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  (get self, get queue)

(* ---- metrics -------------------------------------------------------- *)

let metrics h =
  let ops = float_of_int (max 1 h.H.timed_ops) in
  let d k = try List.assoc k h.H.layer_diff with Not_found -> 0. in
  let per_op k = d k /. ops in
  let ratio a b = if b = 0. then 0. else a /. b in
  let ms ns = float_of_int ns /. 1e6 in
  let lat = H.Ibuf.sorted h.H.op_lat in
  let call_pct kind pm =
    let sorted = H.Ibuf.sorted h.H.calls.(H.kind_index kind) in
    if pm = 500 then H.median sorted /. 1e6 else ms (H.percentile sorted pm)
  in
  let end_to_end =
    [
      ("setup_s", h.H.setup_wall, "s");
      ("wall_ops_per_s", ops /. h.H.phase_wall, "ops/s");
      ("sim_ops_per_s", ops /. (float_of_int h.H.phase_sim_ns /. 1e9), "ops/sim_s");
      ("sim_p50_ms", H.median lat /. 1e6, "sim_ms");
      ("sim_p99_ms", ms (H.percentile lat 990), "sim_ms");
      ("alloc_words_per_op", per_op "gc_minor_words", "words");
      ("peak_heap_mb", float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6, "MB");
    ]
  in
  let calls =
    List.map
      (fun (kind, pm) ->
        ( Printf.sprintf "call.%s.p%d_ms" H.kind_names.(H.kind_index kind) (pm / 10),
          call_pct kind pm,
          "sim_ms" ))
      H.
        [
          (Read, 500); (Read, 990); (Write, 500); (Write, 990); (Sync, 500); (Sync, 990);
          (Stat, 500); (Create, 500); (Create, 990); (Remove, 500); (Open, 500);
          (Open, 990); (Readdir, 500);
        ]
  in
  let setup_us kind =
    let i = H.kind_index kind in
    if h.H.setup_calls.(i) = 0 then 0.
    else h.H.setup_call_wall.(i) *. 1e6 /. float_of_int h.H.setup_calls.(i)
  in
  let syncs = float_of_int h.H.calls.(H.kind_index H.Sync).H.Ibuf.n in
  let layers =
    [
      ("setup.create_us", setup_us H.Create, "us");
      ("setup.write_us", setup_us H.Write, "us");
      ("sched.switches_per_op", float_of_int h.H.switches /. ops, "count");
      ("sched.queue_ms_per_op", per_op "queue_ns" /. 1e6, "sim_ms");
      ("door.crossings_per_op", per_op "cross", "count");
      ("door.local_calls_per_op", per_op "local", "count");
      ("bulk.copies_per_op", per_op "bulk_copies", "count");
      ("bulk.handoffs_per_op", per_op "bulk_handoffs", "count");
      ("vmm.faults_per_op", per_op "faults", "count");
      ("vmm.page_ins_per_op", per_op "page_ins", "count");
      ("vmm.page_outs_per_op", per_op "page_outs", "count");
      ("vmm.readahead_wasted_per_op", per_op "ra_wasted", "count");
      ("vmm.evictions_per_op", per_op "evictions", "count");
      ("coherency.actions_per_op", per_op "coh_actions", "count");
      ("coherency.attr_fetches_per_op", per_op "attr_fetches", "count");
      ("name_cache.hit_ratio", ratio (d "nc_hits") (d "nc_hits" +. d "nc_misses"), "ratio");
      ("name_cache.invalidations_per_op", per_op "nc_invalidations", "count");
      ("journal.syncs_per_commit", ratio syncs (d "js_commits"), "ratio");
      ("journal.writes_per_commit", ratio (d "js_writes") (d "js_commits"), "ratio");
      ("disk.reads_per_op", per_op "disk_reads", "count");
      ("disk.writes_per_op", per_op "disk_writes", "count");
      ("disk.seeks_per_op", per_op "disk_seeks", "count");
      ( "disk.write_amplification",
        ratio (d "disk_writes" *. float_of_int Sp_blockdev.Disk.block_size)
          (float_of_int h.H.user_bytes),
        "ratio" );
      ("disk.reads_per_page_in", ratio (d "disk_reads") (d "page_ins"), "ratio");
      ("net.messages_per_op", per_op "net_messages", "count");
      ("net.bytes_per_op", per_op "net_bytes", "bytes");
      ("cluster.warm_hit_ratio", ratio (d "cl_warm") (d "cl_warm" +. d "cl_cold"), "ratio");
      ("cluster.invalidations_per_op", per_op "cl_inval", "count");
      ("gc.minor_collections_per_kop", 1000. *. per_op "gc_minor", "count");
      ("gc.major_collections_per_kop", 1000. *. per_op "gc_major", "count");
    ]
  in
  let traced =
    match h.H.trace with
    | None -> []
    | Some tr ->
        let self, queue = attribute h tr in
        let per_op_ms ns = float_of_int ns /. 1e6 /. ops in
        List.map (fun ty -> (Printf.sprintf "self.%s_ms_per_op" ty, per_op_ms (self ty), "sim_ms"))
          self_types
        @ List.map
            (fun ty -> (Printf.sprintf "queue.%s_ms_per_op" ty, per_op_ms (queue ty), "sim_ms"))
            queue_types
  in
  end_to_end @ calls @ layers @ traced

(* ---- the record ----------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [%.17g] keeps every digit; JSON has no NaN or infinity. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let record h =
  let ms = metrics h in
  let failed = List.fold_left (fun acc (_, n) -> acc + n) 0 h.H.failures in
  let fields =
    [
      ("workload", json_string h.H.workload);
      ("seed", string_of_int h.H.seed);
      ("traced", string_of_bool h.H.traced);
      ("correct", string_of_bool (h.H.n_problems = 0));
      ("problems", "[" ^ String.concat ", " (List.rev_map json_string h.H.problems) ^ "]");
      ("attempted", string_of_int h.H.attempted);
      ("failed", string_of_int failed);
      ( "failures",
        "{"
        ^ String.concat ", "
            (List.map (fun (n, c) -> json_string n ^ ": " ^ string_of_int c) h.H.failures)
        ^ "}" );
      ("samples", string_of_int h.H.op_lat.H.Ibuf.n);
      ("phase_wall_s", json_float h.H.phase_wall);
      ( "metrics",
        "{"
        ^ String.concat ", "
            (List.map
               (fun (n, v, u) ->
                 Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
                   (json_float v) (json_string u))
               ms)
        ^ "}" );
    ]
  in
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
