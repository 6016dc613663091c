// plan9lint fixture: obs registry names violating the DESIGN.md section 9
// grammar: <family>.<subsystem>.<name>, family in {net,ninep,stream,sim},
// lowercase dash-separated segments, at least three segments.
namespace plan9 {

class MetricsRegistry;
class MetricSet;
class Counter;
class Histogram;

void Register(MetricsRegistry& r) {
  r.CounterNamed("net.il.rexmits");        // fine
  r.GaugeNamed("stream.queue.bytes");      // fine
  r.CounterNamed("net.badUpper");          // BAD: case + only two segments
  r.CounterNamed("foo.bar.baz");           // BAD: unknown family
  r.HistogramNamed("ninep.rpc.latency-us");  // fine
}

// Stats-struct members, each declared once with its name.
struct ConvStats : MetricSet {
  Counter msgs_sent{this, "net.il.msgs-sent"};  // fine
  Histogram rtt{this, "net.il.rtt"};            // fine
  Counter resends{this, "net.il.Resends"};      // BAD: uppercase
  Histogram lag{this, "il.lag"};                // BAD: no family, two segments
};

}  // namespace plan9
