// tvviz-analyzer — project-specific AST checks (DESIGN.md §18).
//
// clang libTooling tool enforcing the hand-maintained contracts the regex
// linter (tools/lint_invariants.py) and clang-tidy cannot express:
//
//   zero-copy-escape      A raw pointer / iterator / span obtained from a
//                         util::SharedBytes must not be stored beyond the
//                         owning handle's reach: flagged when a
//                         .data()/.begin()/.end()/.span() result is written
//                         into a member of a class that keeps no SharedBytes
//                         handle, or init-captured by a lambda that does not
//                         also capture the handle by value.
//
//   loop-blocking-call    Callbacks registered on net::EventLoop
//                         (add/post/post_after) and jobs pushed onto a
//                         net::BlockingQueue run on the loop thread or a
//                         worker; they must never block: raw ::send/::recv
//                         (no deadline), CondVar::wait (no deadline) and
//                         BlockingQueue::pop are flagged. Deadline-carrying
//                         variants (wait_until, try_pop, TcpConnection's
//                         io-timeout I/O) are the sanctioned forms.
//
//   loop-this-capture     A *persistent* EventLoop::add registration that
//                         captures `this` without a std::weak_ptr captured
//                         alongside outlives no-one: the established idiom
//                         is `[this, ws = std::weak_ptr<T>(x)] { if (auto s
//                         = ws.lock()) ... }` (hub/tcp_hub.cpp). One-shot
//                         post/post_after closures are exempt.
//
//   wire-switch-default   Every `switch` over net::MsgType either handles
//                         all enumerators or carries a default that
//                         throws/logs/counts — a silent `default: break;`
//                         hides the day the protocol adds a message type.
//
//   loop-exception-escape A lambda registered on the loop or worker queue
//                         must not let exceptions escape (std::terminate on
//                         the loop thread): `throw` and calls to the
//                         throwing wire APIs (send_message, recv_message,
//                         parse_*, deserialize_*) are flagged unless inside
//                         a try block within the lambda. The catch-and-evict
//                         pattern (DESIGN.md §14) is the sanctioned form.
//
// False positives are suppressed with a comment on the flagged line or the
// line above:   // tvviz-analyzer: allow(<check-id>): <justification>
//
// Driven like clang-tidy: `tvviz-analyzer -p <build> file.cpp` against
// compile_commands.json (tools/run_static_analysis.sh adds a content-hash
// verdict cache), or `tvviz-analyzer fixture.cpp -- -std=c++20 -I src` for
// the fixture corpus (tools/check_analyzer_fixtures.py).
//
// Exit status: 0 clean, 1 findings, 2 the TU itself failed to parse.

#include <set>
#include <string>
#include <vector>

#include "clang/AST/ASTContext.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/ParentMapContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/raw_ostream.h"

namespace {

using namespace clang;             // NOLINT
using namespace clang::ast_matchers;  // NOLINT

// --------------------------------------------------------------- reporting --

class Reporter {
 public:
  /// True when `text` carries an allow-marker for `id`.
  static bool lineAllows(const std::string& text, const std::string& id) {
    const std::string needle = "tvviz-analyzer: allow(" + id + ")";
    return text.find(needle) != std::string::npos;
  }

  /// A marker suppresses a finding on its own line, or anywhere in the
  /// contiguous block of //-comment lines directly above it (multi-line
  /// justifications are the common case).
  bool suppressed(const SourceManager& sm, SourceLocation loc,
                  const std::string& id) const {
    const FileID fid = sm.getFileID(loc);
    const unsigned line = sm.getExpansionLineNumber(loc);
    bool invalid = false;
    const llvm::StringRef buffer = sm.getBufferData(fid, &invalid);
    if (invalid || line == 0) return false;
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= buffer.size() && lines.size() < line) {
      std::size_t end = buffer.find('\n', start);
      if (end == llvm::StringRef::npos) end = buffer.size();
      lines.push_back(buffer.substr(start, end - start).str());
      start = end + 1;
    }
    if (lines.size() < line) return false;
    if (lineAllows(lines[line - 1], id)) return true;
    for (unsigned i = line - 1; i-- > 0;) {
      const std::string& text = lines[i];
      const std::size_t first = text.find_first_not_of(" \t");
      if (first == std::string::npos || text.compare(first, 2, "//") != 0)
        break;
      if (lineAllows(text, id)) return true;
    }
    return false;
  }

  void report(const SourceManager& sm, SourceLocation raw_loc,
              const std::string& id, const std::string& message) {
    const SourceLocation loc = sm.getExpansionLoc(raw_loc);
    if (loc.isInvalid() || sm.isInSystemHeader(loc)) return;
    if (suppressed(sm, loc, id)) return;
    const std::string file = sm.getFilename(loc).str();
    const unsigned line = sm.getExpansionLineNumber(loc);
    const unsigned col = sm.getExpansionColumnNumber(loc);
    // One report per (file, line, check): the same header finding would
    // otherwise repeat for every TU that includes it, and template
    // instantiations would repeat their pattern's findings.
    const std::string key = file + ":" + std::to_string(line) + ":" + id;
    if (!seen_.insert(key).second) return;
    llvm::errs() << file << ":" << line << ":" << col << ": error: [" << id
                 << "] " << message << "\n";
    ++violations_;
  }

  unsigned violations() const { return violations_; }

 private:
  std::set<std::string> seen_;
  unsigned violations_ = 0;
};

/// True when any field of `record` keeps a SharedBytes handle (directly or
/// inside a container/optional — a type-name test is deliberate: holding
/// the handle in ANY form keeps the bytes alive).
bool recordKeepsHandle(const RecordDecl* record) {
  for (const FieldDecl* field : record->fields()) {
    if (field->getType().getAsString().find("SharedBytes") !=
        std::string::npos)
      return true;
  }
  return false;
}

bool typeNameContains(QualType type, const char* fragment) {
  return type.getAsString().find(fragment) != std::string::npos;
}

/// True when a CXXTryStmt encloses `node` without an intervening lambda
/// boundary. A try block *outside* the lambda does not protect it (the
/// exception unwinds through operator() into the loop dispatch), and a
/// nested lambda's invocation site is unknown — conservatively unprotected.
bool protectedByTryWithin(ASTContext& ctx, const Stmt& node) {
  DynTypedNode current = DynTypedNode::create(node);
  while (true) {
    const auto parents = ctx.getParents(current);
    if (parents.empty()) return false;
    current = parents[0];
    if (current.get<CXXTryStmt>() != nullptr) return true;
    if (current.get<LambdaExpr>() != nullptr) return false;
  }
}

// ---------------------------------------------------- check: zero-copy -----

/// Member-store escapes: `field_ = handle.data()` and `Ctor() :
/// field_(handle.data())`. Allowed when the enclosing record also keeps a
/// SharedBytes member (the handle travels alongside the alias).
class ZeroCopyEscapeCheck : public MatchFinder::MatchCallback {
 public:
  explicit ZeroCopyEscapeCheck(Reporter& reporter) : reporter_(reporter) {}

  void run(const MatchFinder::MatchResult& result) override {
    const auto* field = result.Nodes.getNodeAs<FieldDecl>("field");
    const auto* escape = result.Nodes.getNodeAs<CXXMemberCallExpr>("escape");
    if (field == nullptr || escape == nullptr) return;
    const RecordDecl* record = field->getParent();
    if (record == nullptr || recordKeepsHandle(record)) return;
    std::string method = "data";
    if (const auto* decl = escape->getMethodDecl())
      method = decl->getNameAsString();
    reporter_.report(
        *result.SourceManager, escape->getExprLoc(), "zero-copy-escape",
        "SharedBytes::" + method + "() result stored into field '" +
            field->getNameAsString() + "' of '" +
            record->getNameAsString() +
            "', which keeps no SharedBytes handle — the alias can outlive "
            "the owning buffer; store the handle alongside (DESIGN.md §18)");
  }

 private:
  Reporter& reporter_;
};

/// Lambda-capture escapes: `[p = handle.data()] { ... }` without the handle
/// captured by value alongside.
class LambdaEscapeCheck : public MatchFinder::MatchCallback {
 public:
  explicit LambdaEscapeCheck(Reporter& reporter) : reporter_(reporter) {}

  void run(const MatchFinder::MatchResult& result) override {
    const auto* lambda = result.Nodes.getNodeAs<LambdaExpr>("lambda");
    if (lambda == nullptr) return;
    ASTContext& ctx = *result.Context;
    const auto escape_call = cxxMemberCallExpr(
        callee(cxxMethodDecl(hasAnyName("data", "begin", "end", "span"),
                             ofClass(hasName("::tvviz::util::SharedBytes")))));

    bool captures_handle_by_value = false;
    std::vector<const VarDecl*> escapes;
    for (const LambdaCapture& cap : lambda->captures()) {
      if (!cap.capturesVariable()) continue;
      const auto* var = llvm::dyn_cast_or_null<VarDecl>(cap.getCapturedVar());
      if (var == nullptr) continue;
      if (typeNameContains(var->getType(), "SharedBytes")) {
        if (cap.getCaptureKind() == LCK_ByCopy)
          captures_handle_by_value = true;
        continue;
      }
      if (var->isInitCapture() && var->getInit() != nullptr &&
          !match(expr(anyOf(escape_call, hasDescendant(escape_call))),
                 *var->getInit(), ctx)
               .empty())
        escapes.push_back(var);
    }
    if (captures_handle_by_value) return;
    for (const VarDecl* var : escapes)
      reporter_.report(
          *result.SourceManager, lambda->getBeginLoc(), "zero-copy-escape",
          "lambda init-capture '" + var->getNameAsString() +
              "' aliases a SharedBytes buffer without capturing the owning "
              "handle by value — capture the SharedBytes alongside so the "
              "bytes outlive the callback (DESIGN.md §18)");
  }

 private:
  Reporter& reporter_;
};

// ------------------------------------- check: event-loop / worker lambdas --

/// Everything registered on the loop (EventLoop::add/post/post_after) or
/// pushed onto a worker queue (BlockingQueue::push): blocking calls,
/// this-captures without the weak_ptr idiom, and escaping exceptions.
class LoopCallbackCheck : public MatchFinder::MatchCallback {
 public:
  explicit LoopCallbackCheck(Reporter& reporter) : reporter_(reporter) {}

  void run(const MatchFinder::MatchResult& result) override {
    const auto* reg = result.Nodes.getNodeAs<CXXMemberCallExpr>("reg");
    if (reg == nullptr) return;
    const auto* method = reg->getMethodDecl();
    if (method == nullptr) return;
    const std::string method_name = method->getNameAsString();
    const bool persistent = method_name == "add";

    ASTContext& ctx = *result.Context;
    std::vector<const LambdaExpr*> lambdas;
    for (const Expr* arg : reg->arguments()) collectLambdas(arg, ctx, lambdas);
    for (const LambdaExpr* lambda : lambdas) {
      checkBlockingCalls(lambda, result);
      if (persistent) checkThisCapture(lambda, result);
      checkExceptionEscape(lambda, result);
    }
  }

 private:
  static void collectLambdas(const Expr* arg, ASTContext& ctx,
                             std::vector<const LambdaExpr*>& out) {
    if (const auto* direct =
            llvm::dyn_cast<LambdaExpr>(arg->IgnoreImplicit()))
      out.push_back(direct);
    for (const auto& bound :
         match(expr(forEachDescendant(lambdaExpr().bind("l"))), *arg, ctx)) {
      const auto* lambda = bound.getNodeAs<LambdaExpr>("l");
      if (lambda != nullptr) out.push_back(lambda);
    }
  }

  void checkBlockingCalls(const LambdaExpr* lambda,
                          const MatchFinder::MatchResult& result) {
    const Stmt* body = lambda->getBody();
    if (body == nullptr) return;
    const auto blocking = callExpr(
        anyOf(callee(functionDecl(hasAnyName("::send", "::recv", "::sendmsg",
                                             "::recvmsg", "::poll",
                                             "::select"))),
              callee(cxxMethodDecl(
                  hasName("wait"),
                  ofClass(hasName("::tvviz::util::CondVar")))),
              callee(cxxMethodDecl(
                  hasName("pop"),
                  ofClass(hasName("::tvviz::net::BlockingQueue"))))));
    for (const auto& bound :
         match(stmt(forEachDescendant(blocking.bind("call"))), *body,
               *result.Context)) {
      const auto* call = bound.getNodeAs<CallExpr>("call");
      if (call == nullptr) continue;
      std::string callee_name = "<call>";
      if (const auto* decl = call->getDirectCallee())
        callee_name = decl->getQualifiedNameAsString();
      reporter_.report(
          *result.SourceManager, call->getExprLoc(), "loop-blocking-call",
          "blocking call '" + callee_name +
              "' inside a callback registered on the event loop / worker "
              "queue — loop callbacks must never block; use the "
              "deadline-carrying form (wait_until, try_pop, io-timeout "
              "send/recv) or move the work off the callback (DESIGN.md §18)");
    }
  }

  void checkThisCapture(const LambdaExpr* lambda,
                        const MatchFinder::MatchResult& result) {
    bool captures_this = false;
    bool captures_weak = false;
    for (const LambdaCapture& cap : lambda->captures()) {
      if (cap.capturesThis()) {
        captures_this = true;
      } else if (cap.capturesVariable()) {
        const auto* var = cap.getCapturedVar();
        if (var != nullptr && typeNameContains(var->getType(), "weak_ptr"))
          captures_weak = true;
      }
    }
    if (captures_this && !captures_weak)
      reporter_.report(
          *result.SourceManager, lambda->getBeginLoc(), "loop-this-capture",
          "persistent EventLoop::add registration captures 'this' without a "
          "std::weak_ptr captured alongside — the callback can fire after "
          "the object dies; use the `[this, ws = std::weak_ptr<T>(x)]` "
          "idiom (hub/tcp_hub.cpp) or suppress with a lifetime "
          "justification (DESIGN.md §18)");
  }

  void checkExceptionEscape(const LambdaExpr* lambda,
                            const MatchFinder::MatchResult& result) {
    const Stmt* body = lambda->getBody();
    if (body == nullptr) return;
    ASTContext& ctx = *result.Context;
    const auto thrower = stmt(anyOf(
        cxxThrowExpr(),
        callExpr(callee(functionDecl(hasAnyName(
            "send_message", "recv_message", "parse_hello",
            "deserialize_message", "deserialize_frame"))))));
    for (const auto& bound :
         match(stmt(forEachDescendant(thrower.bind("t"))), *body, ctx)) {
      const auto* node = bound.getNodeAs<Stmt>("t");
      if (node == nullptr || protectedByTryWithin(ctx, *node)) continue;
      std::string what = "throw";
      if (const auto* call = llvm::dyn_cast<CallExpr>(node)) {
        if (const auto* decl = call->getDirectCallee())
          what = decl->getQualifiedNameAsString();
      }
      reporter_.report(
          *result.SourceManager, node->getBeginLoc(), "loop-exception-escape",
          "'" + what +
              "' can throw out of a loop/worker callback — an escaped "
              "exception terminates the process on the loop thread; wrap in "
              "try/catch and evict the connection instead (DESIGN.md §18)");
    }
  }

  Reporter& reporter_;
};

// ---------------------------------------------- check: wire exhaustiveness --

class WireSwitchCheck : public MatchFinder::MatchCallback {
 public:
  explicit WireSwitchCheck(Reporter& reporter) : reporter_(reporter) {}

  void run(const MatchFinder::MatchResult& result) override {
    const auto* sw = result.Nodes.getNodeAs<SwitchStmt>("switch");
    if (sw == nullptr || sw->getCond() == nullptr) return;
    ASTContext& ctx = *result.Context;
    const QualType cond_type = sw->getCond()->IgnoreImpCasts()->getType();
    const auto* enum_type = cond_type->getAs<EnumType>();
    if (enum_type == nullptr) return;
    const EnumDecl* enum_decl = enum_type->getDecl();
    if (enum_decl->getQualifiedNameAsString() != "tvviz::net::MsgType")
      return;

    std::set<long long> covered;
    const DefaultStmt* default_stmt = nullptr;
    for (const SwitchCase* sc = sw->getSwitchCaseList(); sc != nullptr;
         sc = sc->getNextSwitchCase()) {
      if (const auto* def = llvm::dyn_cast<DefaultStmt>(sc)) {
        default_stmt = def;
        continue;
      }
      const auto* cs = llvm::cast<CaseStmt>(sc);
      if (const Expr* lhs = cs->getLHS())
        covered.insert(lhs->EvaluateKnownConstInt(ctx).getExtValue());
    }

    if (default_stmt == nullptr) {
      std::string missing;
      for (const EnumConstantDecl* enumerator : enum_decl->enumerators()) {
        if (covered.count(enumerator->getInitVal().getExtValue()) != 0)
          continue;
        if (!missing.empty()) missing += ", ";
        missing += enumerator->getNameAsString();
      }
      if (!missing.empty())
        reporter_.report(
            *result.SourceManager, sw->getSwitchLoc(), "wire-switch-default",
            "switch over net::MsgType does not handle " + missing +
                " and has no default — add the cases, or a default that "
                "throws/logs/counts so a future protocol version cannot "
                "fall through silently (DESIGN.md §18)");
      return;
    }

    // A default exists: it must DO something observable (throw, log, count,
    // evict — any call). `default: break;` / `default: return;` is the
    // silent fallthrough that swallows a message type added later.
    const Stmt* sub = default_stmt->getSubStmt();
    const bool silent =
        sub == nullptr ||
        match(stmt(anyOf(callExpr(), cxxThrowExpr(),
                         hasDescendant(stmt(anyOf(callExpr(),
                                                  cxxThrowExpr()))))),
              *sub, ctx)
            .empty();
    if (silent)
      reporter_.report(
          *result.SourceManager, default_stmt->getDefaultLoc(),
          "wire-switch-default",
          "silent default in a switch over net::MsgType — when the protocol "
          "adds a message this drops it without a trace; throw, log or "
          "count the unexpected type (DESIGN.md §18)");
  }

 private:
  Reporter& reporter_;
};

}  // namespace

// -------------------------------------------------------------------- main --

static llvm::cl::OptionCategory kToolCategory("tvviz-analyzer options");
static llvm::cl::extrahelp kCommonHelp(
    clang::tooling::CommonOptionsParser::HelpMessage);

int main(int argc, const char** argv) {
  auto options = clang::tooling::CommonOptionsParser::create(
      argc, argv, kToolCategory);
  if (!options) {
    llvm::errs() << llvm::toString(options.takeError()) << "\n";
    return 2;
  }
  clang::tooling::ClangTool tool(options->getCompilations(),
                                 options->getSourcePathList());

  Reporter reporter;
  ZeroCopyEscapeCheck zero_copy(reporter);
  LambdaEscapeCheck lambda_escape(reporter);
  LoopCallbackCheck loop_callback(reporter);
  WireSwitchCheck wire_switch(reporter);

  MatchFinder finder;
  const auto shared_bytes_escape = cxxMemberCallExpr(
      callee(cxxMethodDecl(hasAnyName("data", "begin", "end", "span"),
                           ofClass(hasName("::tvviz::util::SharedBytes")))));
  const auto escape_expr =
      expr(anyOf(shared_bytes_escape.bind("escape"),
                 hasDescendant(shared_bytes_escape.bind("escape"))));
  finder.addMatcher(
      binaryOperator(isAssignmentOperator(),
                     hasLHS(memberExpr(member(fieldDecl().bind("field")))),
                     hasRHS(escape_expr)),
      &zero_copy);
  finder.addMatcher(
      cxxConstructorDecl(forEachConstructorInitializer(
          cxxCtorInitializer(isMemberInitializer(),
                             forField(fieldDecl().bind("field")),
                             withInitializer(escape_expr)))),
      &zero_copy);
  finder.addMatcher(lambdaExpr().bind("lambda"), &lambda_escape);

  finder.addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(
              hasAnyName("add", "post", "post_after"),
              ofClass(hasName("::tvviz::net::EventLoop")))))
          .bind("reg"),
      &loop_callback);
  finder.addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(
              hasName("push"),
              ofClass(hasName("::tvviz::net::BlockingQueue")))))
          .bind("reg"),
      &loop_callback);

  finder.addMatcher(switchStmt().bind("switch"), &wire_switch);

  const int status =
      tool.run(clang::tooling::newFrontendActionFactory(&finder).get());
  if (reporter.violations() != 0) {
    llvm::errs() << "tvviz-analyzer: " << reporter.violations()
                 << " finding(s)\n";
    return 1;
  }
  if (status != 0) return 2;
  llvm::outs() << "tvviz-analyzer: clean\n";
  return 0;
}
