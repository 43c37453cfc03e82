type t = {
  mutable nodes_entered : int;
  mutable nodes_alive : int;
  mutable nodes_skipped_dead : int;
  mutable nodes_pruned_tax : int;
  mutable candidates : int;
  mutable answers : int;
  mutable conds_created : int;
  mutable quals_resolved : int;
  mutable atom_instances : int;
  mutable max_items : int;
  mutable passes_over_data : int;
  mutable degraded_no_index : int;
  mutable degraded_stax_retry : int;
  mutable plan_cache_hit : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable memo_evictions : int;
  mutable table_spec_us : int;
  mutable batch_queries : int;
  mutable shared_states : int;
  mutable shared_saved : int;
  mutable shared_prefix_hits : int;
  mutable accept_width : int;
  mutable policy_key_hits : int;
}

let create () =
  {
    nodes_entered = 0;
    nodes_alive = 0;
    nodes_skipped_dead = 0;
    nodes_pruned_tax = 0;
    candidates = 0;
    answers = 0;
    conds_created = 0;
    quals_resolved = 0;
    atom_instances = 0;
    max_items = 0;
    passes_over_data = 1;
    degraded_no_index = 0;
    degraded_stax_retry = 0;
    plan_cache_hit = 0;
    memo_hits = 0;
    memo_misses = 0;
    memo_evictions = 0;
    table_spec_us = 0;
    batch_queries = 0;
    shared_states = 0;
    shared_saved = 0;
    shared_prefix_hits = 0;
    accept_width = 0;
    policy_key_hits = 0;
  }

let zero () =
  let s = create () in
  s.passes_over_data <- 0;
  s

let merge_into ~into s =
  into.nodes_entered <- into.nodes_entered + s.nodes_entered;
  into.nodes_alive <- into.nodes_alive + s.nodes_alive;
  into.nodes_skipped_dead <- into.nodes_skipped_dead + s.nodes_skipped_dead;
  into.nodes_pruned_tax <- into.nodes_pruned_tax + s.nodes_pruned_tax;
  into.candidates <- into.candidates + s.candidates;
  into.answers <- into.answers + s.answers;
  into.conds_created <- into.conds_created + s.conds_created;
  into.quals_resolved <- into.quals_resolved + s.quals_resolved;
  into.atom_instances <- into.atom_instances + s.atom_instances;
  into.max_items <- max into.max_items s.max_items;
  into.passes_over_data <- into.passes_over_data + s.passes_over_data;
  into.degraded_no_index <- into.degraded_no_index + s.degraded_no_index;
  into.degraded_stax_retry <- into.degraded_stax_retry + s.degraded_stax_retry;
  into.plan_cache_hit <- into.plan_cache_hit + s.plan_cache_hit;
  into.memo_hits <- into.memo_hits + s.memo_hits;
  into.memo_misses <- into.memo_misses + s.memo_misses;
  into.memo_evictions <- into.memo_evictions + s.memo_evictions;
  into.table_spec_us <- into.table_spec_us + s.table_spec_us;
  into.batch_queries <- into.batch_queries + s.batch_queries;
  into.shared_states <- into.shared_states + s.shared_states;
  into.shared_saved <- into.shared_saved + s.shared_saved;
  into.shared_prefix_hits <- into.shared_prefix_hits + s.shared_prefix_hits;
  into.accept_width <- max into.accept_width s.accept_width;
  into.policy_key_hits <- into.policy_key_hits + s.policy_key_hits

let note_shared s (sh : Smoqe_automata.Shared.t) =
  s.batch_queries <- sh.n_queries;
  s.shared_states <- sh.merged_states;
  s.shared_saved <- Smoqe_automata.Shared.saved_states sh;
  s.shared_prefix_hits <- sh.prefix_hits;
  s.accept_width <- sh.accept_width

let total_skipped t = t.nodes_skipped_dead + t.nodes_pruned_tax

let degraded t = t.degraded_no_index > 0 || t.degraded_stax_retry > 0

let to_assoc t =
  [
    ("nodes_entered", t.nodes_entered);
    ("nodes_alive", t.nodes_alive);
    ("nodes_skipped_dead", t.nodes_skipped_dead);
    ("nodes_pruned_tax", t.nodes_pruned_tax);
    ("candidates", t.candidates);
    ("answers", t.answers);
    ("conds_created", t.conds_created);
    ("quals_resolved", t.quals_resolved);
    ("atom_instances", t.atom_instances);
    ("max_items", t.max_items);
    ("passes_over_data", t.passes_over_data);
    ("degraded_no_index", t.degraded_no_index);
    ("degraded_stax_retry", t.degraded_stax_retry);
    ("plan_cache_hit", t.plan_cache_hit);
    ("memo_hits", t.memo_hits);
    ("memo_misses", t.memo_misses);
    ("memo_evictions", t.memo_evictions);
    ("table_spec_us", t.table_spec_us);
    ("batch_queries", t.batch_queries);
    ("shared_states", t.shared_states);
    ("shared_saved", t.shared_saved);
    ("shared_prefix_hits", t.shared_prefix_hits);
    ("accept_width", t.accept_width);
    ("policy_key_hits", t.policy_key_hits);
  ]

let pp ppf t =
  Fmt.pf ppf
    "@[<v>entered: %d (alive %d)@ skipped: %d dead, %d via TAX@ candidates: \
     %d, answers: %d@ conditions: %d, qualifiers resolved: %d, atom runs: \
     %d@ peak items/node: %d, passes over data: %d"
    t.nodes_entered t.nodes_alive t.nodes_skipped_dead t.nodes_pruned_tax
    t.candidates t.answers t.conds_created t.quals_resolved t.atom_instances
    t.max_items t.passes_over_data;
  if t.plan_cache_hit > 0 then Fmt.pf ppf "@ plan: served from cache";
  if t.memo_hits + t.memo_misses + t.table_spec_us > 0 then
    Fmt.pf ppf "@ tables: %d memo hits, %d misses, %d evictions, specialize %dus"
      t.memo_hits t.memo_misses t.memo_evictions t.table_spec_us;
  if t.batch_queries > 0 then
    Fmt.pf ppf
      "@ batch: %d queries, %d merged states (%d saved), %d prefix hits, \
       accept width %d"
      t.batch_queries t.shared_states t.shared_saved t.shared_prefix_hits
      t.accept_width;
  if t.policy_key_hits > 0 then
    Fmt.pf ppf "@ tenancy: %d policy-key hits" t.policy_key_hits;
  if degraded t then
    Fmt.pf ppf "@ degraded:%s%s"
      (if t.degraded_no_index > 0 then " index unavailable -> unindexed DOM"
       else "")
      (if t.degraded_stax_retry > 0 then " StAX failed -> DOM retry" else "");
  Fmt.pf ppf "@]"
