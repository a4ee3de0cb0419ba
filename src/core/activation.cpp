#include "core/activation.h"

namespace cameo {

void ExecuteStep(const Activation& a, Message& m, const StepClock& clock) {
  std::vector<CollectingEmitter::Out>& outs = a.emitter.outs();
  outs.clear();
  InvokeContext ctx{clock.start, &a.emitter, &a.rng};
  a.op.Invoke(m, ctx);

  SimTime end = clock.start;
  if (clock.wall_epoch != nullptr) {
    end = std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - *clock.wall_epoch)
              .count();
  }
  const Duration exec = clock.charged + (end - clock.start);
  a.profiler.Record(m.target, exec);
  a.policy.OnInvoked(m.target, a.op.job(), exec, end);

  for (CollectingEmitter::Out& out : outs) {
    for (auto& d : a.graph.Route(m.target, out.port, std::move(out.batch))) {
      Message md;
      md.pc = a.converter.BuildCxtAtOperator(
          m.pc, a.op, a.graph.Get(d.target), d.batch.progress, out.event_time,
          MessageId{a.next_message_id.fetch_add(1, std::memory_order_relaxed)});
      md.id = md.pc.id;
      md.target = d.target;
      md.sender = m.target;
      md.event_time = out.event_time;
      md.batch = std::move(d.batch);
      a.hooks.Send(std::move(md));
    }
  }

  // Acknowledge upstream with a Reply Context (paper Fig. 5(a), steps 5-6).
  if (m.sender.valid()) {
    a.hooks.Reply(m.sender, m.target,
                  a.converter.PrepareReply(a.profiler.Estimate(m.target),
                                           clock.dispatched - m.enqueue_time,
                                           a.op.is_sink()));
  }

  if (a.op.is_sink()) {
    const bool sliding = a.graph.job(a.op.job()).output_slide > 0;
    a.latency.OnSinkOutput(a.worker, a.op.job(),
                           sliding ? m.progress() : m.event_time, end);
    a.latency.OnSinkTuples(a.worker, a.op.job(), m.batch.size(), end);
  }
  // Last reader of this message's columns: park them for reuse.
  m.batch.Recycle();
}

}  // namespace cameo
