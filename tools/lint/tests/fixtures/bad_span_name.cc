// plan9lint fixture: span op names violating the DESIGN.md section 12
// grammar: <family>(.<segment>)+, family in {dial,cs,il,tcp,9p,import},
// lowercase dash-separated segments.
namespace plan9 {
namespace obs {
class Context;
class ScopedSpan;
}  // namespace obs

void Traced(const char* computed, obs::Context& ctx) {
  obs::ScopedSpan span("dial.cs", ctx);           // fine
  obs::ScopedSpan shouty("Dial.CS", ctx);         // BAD: uppercase
  obs::ScopedSpan lost("frobnicate.walk", ctx);   // BAD: unknown family
  obs::ScopedSpan dynamic(computed, ctx);         // computed: skipped
  obs::EmitPointSpan("il.rtt", ctx);              // fine
  obs::EmitPointSpan("il", ctx);                  // BAD: family alone
}

}  // namespace plan9
